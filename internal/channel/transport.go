package channel

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"gosplice/internal/telemetry"
)

// Transport fetches a channel's manifest and tarballs. Implementations
// deliver raw bytes and may retry internally, but they make no integrity
// promise — Client.Sync verifies every tarball against its manifest entry
// before the bytes are interpreted, so a Transport (or the network under
// it) can be arbitrarily faulty without a corrupt update ever reaching
// Apply.
//
// Every method takes a context and honours its cancellation, including
// between internal retries: a cancelled subscriber exits mid-backoff in
// milliseconds instead of sleeping out the full jittered schedule — what
// lets a fleet orchestrator stop hundreds of in-flight clients promptly.
type Transport interface {
	// Manifest fetches and decodes the channel manifest.
	Manifest(ctx context.Context) (*Manifest, error)
	// Fetch returns the raw tarball bytes for one manifest entry.
	Fetch(ctx context.Context, e Entry) ([]byte, error)
	// FetchBlob returns the raw bytes of one content-addressed blob the
	// manifest advertises (a tarball or a binary delta). size
	// is the advertised length, or 0 when unknown; implementations may
	// use it to detect and resume truncated transfers. Like Fetch, the
	// bytes come back unverified — the caller owns the digest check.
	FetchBlob(ctx context.Context, digest string, size int64) ([]byte, error)
}

// --- Local directory transport ---

type dirTransport struct {
	dir string
}

// NewDirTransport serves a channel straight from a local directory — the
// degenerate transport a publisher-side machine uses.
func NewDirTransport(dir string) Transport {
	return &dirTransport{dir: dir}
}

func (t *dirTransport) Manifest(ctx context.Context) (*Manifest, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ReadManifest(t.dir)
}

func (t *dirTransport) Fetch(ctx context.Context, e Entry) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(t.dir, filepath.Base(e.File)))
}

func (t *dirTransport) FetchBlob(ctx context.Context, digest string, size int64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(t.dir, blobsDirName, filepath.Base(digest)))
}

// --- HTTP transport ---

// HTTPOptions tunes NewHTTPTransport. The zero value is usable.
type HTTPOptions struct {
	// Timeout bounds each individual HTTP request (default 10s). A
	// subscribe over many updates issues many requests; none of them may
	// hang forever.
	Timeout time.Duration
	// MaxRetries bounds how many times one logical fetch is re-attempted
	// after a transport error, a 5xx, or a truncated body (default 4).
	MaxRetries int
	// Backoff is the base delay before the first retry; it doubles per
	// attempt, with up to 50% random jitter so a fleet of subscribers
	// does not retry in lockstep (default 100ms).
	Backoff time.Duration
	// Seed makes the jitter deterministic for tests; 0 seeds from the
	// current time.
	Seed int64
	// Client overrides the underlying *http.Client (its Timeout is
	// ignored in favour of per-request contexts).
	Client *http.Client
}

type httpTransport struct {
	base   string
	client *http.Client
	opt    HTTPOptions

	mu  sync.Mutex
	rng *rand.Rand
}

// NewHTTPTransport subscribes to a channel served by Server at baseURL
// (e.g. "http://updates.example.com/"). Every request carries a timeout
// and the caller's context; failures are retried with exponential backoff
// and jitter (the sleeps select on the context, so cancellation is
// immediate); a truncated body (manifest, tarball or blob) is resumed
// from the byte where it broke off via a Range request rather than
// refetched whole. Retries, backoffs and resumes count into the metric
// set of the channel.Client whose request it is (process-wide for
// requests made without one).
func NewHTTPTransport(baseURL string, o HTTPOptions) Transport {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 4
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	seed := o.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	client := o.Client
	if client == nil {
		client = &http.Client{}
	}
	return &httpTransport{
		base:   strings.TrimSuffix(baseURL, "/"),
		client: client,
		opt:    o,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// backoff sleeps before retry attempt (0-based), exponentially with
// jitter. The sleep selects on ctx, so a cancelled client abandons the
// retry schedule immediately — it returns ctx's error instead of
// sleeping it out.
func (t *httpTransport) backoff(ctx context.Context, attempt int) error {
	d := t.opt.Backoff << uint(attempt)
	t.mu.Lock()
	jitter := time.Duration(t.rng.Int63n(int64(d)/2 + 1))
	t.mu.Unlock()
	ms := metricsFrom(ctx)
	ms.retries.Inc()
	ms.backoff.ObserveDuration(d + jitter)
	timer := time.NewTimer(d + jitter)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// get issues one bounded GET. A Range header is added when offset > 0.
// When the context carries a span, the request is stamped with its
// traceparent so the server's handler span joins the caller's trace.
// It returns the response with its body unread; the caller must close it.
func (t *httpTransport) get(ctx context.Context, path string, offset int64) (*http.Response, context.CancelFunc, error) {
	rctx, cancel := context.WithTimeout(ctx, t.opt.Timeout)
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if offset > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", offset))
	}
	if tp := telemetry.TraceparentFromContext(ctx); tp != "" {
		req.Header.Set(telemetry.TraceparentHeader, tp)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

// retriableStatus reports server-side conditions worth retrying; 4xx
// responses are permanent (the URL is simply wrong).
func retriableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// maxBodyBytes caps a response body whose length no manifest entry
// pins: the manifest itself, or a blob advertised without a size. A
// hostile or broken server cannot make the transport buffer more.
const maxBodyBytes = 8 << 20

// readHint caps the buffer an unsized body starts with: enough for any
// manifest of the corpus in one allocation, little for a server that
// announces a body it never sends.
const readHint = 64 << 10

// Manifest downloads and decodes the manifest through download: a body
// that fails to decode (cut short and closed cleanly, corrupted in
// flight, or spliced across a publish by a resume) is dropped and
// fetched again.
func (t *httpTransport) Manifest(ctx context.Context) (*Manifest, error) {
	var m *Manifest
	_, err := t.download(ctx, "/"+manifestName, "manifest", 0, func(b []byte) (err error) {
		m, err = DecodeManifest(b)
		return err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Fetch downloads one tarball, resuming from the last good byte when the
// body is cut short. It returns the accumulated bytes unverified —
// Client.Sync owns the digest check.
func (t *httpTransport) Fetch(ctx context.Context, e Entry) ([]byte, error) {
	return t.download(ctx, "/updates/"+e.File, e.File, e.Size, nil)
}

// FetchBlob downloads one content-addressed blob through the same
// retry/backoff/Range-resume machinery as tarball fetches — a truncated
// delta resumes mid-body instead of restarting.
func (t *httpTransport) FetchBlob(ctx context.Context, digest string, size int64) ([]byte, error) {
	label := digest
	if len(label) > 12 {
		label = label[:12] + "…"
	}
	return t.download(ctx, "/blob/"+digest, label, size, nil)
}

// appendUpTo appends r's bytes to buf until r ends or buf holds n bytes.
// buf grows only when its capacity runs out, so a body read into a
// buffer sized for it lands in place.
func appendUpTo(buf []byte, r io.Reader, n int) ([]byte, error) {
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), 512))
		}
		m, err := r.Read(buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// download is the one request loop of Manifest, Fetch and FetchBlob:
// bounded attempts, exponential backoff, and resume-from-last-good-byte
// on truncation. label only decorates errors. size (when > 0) catches
// clean-but-early connection closes and bounds the read: an attempt
// reads at most one byte past the advertised end, and a body that runs
// past it is discarded and retried. An unsized body is capped at
// maxBodyBytes. check, when non-nil, vets a complete body; one it
// rejects is discarded and that attempt retried.
func (t *httpTransport) download(ctx context.Context, path, label string, size int64, check func([]byte) error) ([]byte, error) {
	var (
		buf     []byte
		lastErr error
	)
	for attempt := 0; attempt <= t.opt.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := t.backoff(ctx, attempt-1); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		offset := int64(len(buf))
		resp, cancel, err := t.get(ctx, path, offset)
		if err != nil {
			lastErr = err
			continue
		}
		switch {
		case offset > 0 && resp.StatusCode == http.StatusPartialContent:
			// Resuming where the last body broke off.
			metricsFrom(ctx).resumes.Inc()
		case resp.StatusCode == http.StatusOK:
			// Full body (or the server ignored our Range): start over.
			buf = buf[:0]
		default:
			resp.Body.Close()
			cancel()
			lastErr = fmt.Errorf("channel: %s: server returned %s", label, resp.Status)
			if !retriableStatus(resp.StatusCode) {
				return nil, lastErr
			}
			continue
		}
		end := int64(maxBodyBytes)
		switch {
		case size > 0:
			end = size
			if buf == nil {
				// Sized from the manifest, plus the byte that shows a
				// body running long: it lands in place, with no
				// growth and no copy.
				buf = make([]byte, 0, size+1)
			}
		case buf == nil && resp.ContentLength > 0:
			// Nothing pins the size, so the server's Content-Length
			// is only a hint; up to readHint bytes of it are taken.
			buf = make([]byte, 0, min(resp.ContentLength+1, readHint))
		}
		// An attempt reads at most one byte past the advertised end.
		buf, err = appendUpTo(buf, resp.Body, int(end)+1)
		resp.Body.Close()
		cancel()
		if int64(len(buf)) > end {
			// Longer than advertised: nothing received can be trusted
			// as a prefix to resume from.
			buf = buf[:0]
			lastErr = fmt.Errorf("channel: %s: body runs past byte %d", label, end)
			continue
		}
		if err != nil {
			// Truncated body: keep what arrived and resume from there.
			lastErr = fmt.Errorf("channel: %s: body truncated at byte %d: %w", label, len(buf), err)
			continue
		}
		if size > 0 && int64(len(buf)) < size {
			// The connection closed cleanly but early (proxy cut, fault
			// injection): same resume path.
			lastErr = fmt.Errorf("channel: %s: got %d of %d bytes", label, len(buf), size)
			continue
		}
		if check != nil {
			if err := check(buf); err != nil {
				buf = buf[:0]
				lastErr = err
				continue
			}
		}
		return buf, nil
	}
	return nil, fmt.Errorf("channel: %s unavailable after %d attempts: %w", label, t.opt.MaxRetries+1, lastErr)
}
