package channel

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gosplice/internal/telemetry"
)

// Server serves a channel directory over HTTP — the publisher side of
// the section 8 proposal at fleet scale. Routes:
//
//	GET /channel.json      the manifest (with its self-digest)
//	GET /updates/<file>    a tarball by manifest file name
//	GET /blob/<sha256>     any advertised content by digest: a tarball
//	                       or a binary delta
//	GET /metrics           Prometheus text exposition (live, process-wide)
//	GET /debug/vars        JSON telemetry snapshot
//
// Every content response — tarball or blob — goes through one helper
// that supports Range requests and serves the content digest as a
// strong ETag, so a subscriber whose download was cut short resumes
// from the last good byte instead of
// refetching the whole thing. Every content request re-reads the
// manifest's bytes, so a publisher appending to the directory is picked
// up immediately; decoding and verifying them is memoized until the
// bytes change, and bytes that fail to verify are never answered from
// the memo. Only files the manifest names are ever served (no path
// traversal).
//
// Every channel request counts into gosplice_channel_requests_total
// (route x status, so Range resumes surface as 206s and ETag
// revalidations as 304s) and times into
// gosplice_channel_request_seconds.
type Server struct {
	Dir string
	// Fleet, when non-nil, additionally serves fleet aggregation:
	//
	//	POST /fleet/report   accept one pushed telemetry snapshot
	//	GET  /fleet/health   merged per-client fleet-health view
	//	GET  /fleet/trace    pushed and local spans as one Chrome trace
	//
	// Several servers may share one aggregator — a fleet spanning
	// multiple channels still has one health view.
	Fleet *FleetAggregator
	// Tracer records handler spans (nil means the process default).
	// When a request carries a traceparent header, the handler span
	// adopts the caller's trace id and parents onto the remote span, so
	// the server's side of a fetch appears inside the subscriber's
	// distributed trace; a missing or garbage header degrades to a
	// fresh root trace.
	Tracer *telemetry.Tracer

	memo atomic.Pointer[manifestMemo]
}

// manifestMemo is one verified manifest, keyed by the exact bytes it
// was decoded from. index maps each servable request path
// (/updates/<file> and /blob/<sha256>) to what it serves. A memo is
// never mutated; a changed manifest swaps in a new one.
type manifestMemo struct {
	raw   []byte
	index map[string]servedFile
}

// servedFile is what one request path serves: rel is the file's path
// under Dir, name is what ServeContent reports, and etag is the content
// digest.
type servedFile struct{ rel, name, ctype, etag string }

// newManifestMemo indexes m. The first tarball claiming a file name or
// digest wins, and a tarball wins over a delta with the same digest.
func newManifestMemo(raw []byte, m *Manifest) *manifestMemo {
	c := &manifestMemo{raw: raw, index: make(map[string]servedFile, 2*len(m.Updates)+len(m.Deltas))}
	add := func(path string, f servedFile) {
		if _, ok := c.index[path]; !ok {
			c.index[path] = f
		}
	}
	for _, e := range m.Updates {
		f := servedFile{filepath.Base(e.File), e.File, "application/x-tar", e.Sha256}
		add("/updates/"+e.File, f)
		add("/blob/"+e.Sha256, f)
	}
	for _, d := range m.Deltas {
		add("/blob/"+d.Sha256, servedFile{filepath.Join(blobsDirName, filepath.Base(d.Sha256)), d.Sha256, "application/octet-stream", d.Sha256})
	}
	return c
}

// manifestBufs recycles the buffers manifestIndex reads the manifest
// into: a warm request compares the bytes and keeps none of them.
var manifestBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// manifestIndex re-reads the manifest's bytes and returns the index of
// the verified manifest they encode, decoding only when they differ
// from the memo's. ok is false when the manifest is missing or fails to
// verify.
func (s *Server) manifestIndex() (index map[string]servedFile, ok bool) {
	f, err := os.Open(filepath.Join(s.Dir, manifestName))
	if err != nil {
		return nil, false
	}
	buf := manifestBufs.Get().(*bytes.Buffer)
	defer manifestBufs.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(f)
	f.Close()
	if err != nil {
		return nil, false
	}
	if c := s.memo.Load(); c != nil && bytes.Equal(c.raw, buf.Bytes()) {
		return c.index, true
	}
	b := bytes.Clone(buf.Bytes())
	m, err := DecodeManifest(b)
	if err != nil {
		return nil, false
	}
	c := newManifestMemo(b, m)
	s.memo.Store(c)
	return c.index, true
}

// NewServer serves the channel directory dir.
func NewServer(dir string) *Server {
	return &Server{Dir: dir}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/metrics" || strings.HasPrefix(r.URL.Path, "/debug/vars") {
		// Introspection routes are served but never counted as channel
		// traffic — a scraper polling /metrics must not move the request
		// counters it is reading.
		telemetry.HTTPHandler().ServeHTTP(w, r)
		return
	}
	if strings.HasPrefix(r.URL.Path, "/fleet/") {
		// Control plane, like /metrics: uncounted, and handled before the
		// GET-only gate because reports arrive as POSTs.
		if s.Fleet == nil {
			http.Error(w, "fleet aggregation not enabled", http.StatusNotFound)
			return
		}
		s.Fleet.serveFleet(w, r)
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var route string
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	switch {
	case r.URL.Path == "/"+manifestName || r.URL.Path == "/":
		route = "manifest"
	case strings.HasPrefix(r.URL.Path, "/updates/"):
		route = "update"
	case strings.HasPrefix(r.URL.Path, "/blob/"):
		route = "blob"
	default:
		route = "other"
	}
	sp := s.startSpan(r, route)
	switch route {
	case "manifest":
		s.serveManifest(sw, r)
	case "update", "blob":
		s.serveContent(sw, r)
	default:
		http.NotFound(sw, r)
	}
	sp.SetAttr("status", strconv.Itoa(sw.code))
	sp.End()
	cRequests(route, sw.code).Inc()
	hRequest(route).ObserveDuration(time.Since(start))
}

// startSpan opens the handler span for one channel request: joined to
// the caller's trace when the request carries a parseable traceparent
// header, a fresh root trace otherwise.
func (s *Server) startSpan(r *http.Request, route string) *telemetry.Span {
	tr := s.Tracer
	if tr == nil {
		tr = telemetry.DefaultTracer()
	}
	name := "server." + route
	attrs := []telemetry.Attr{telemetry.A("path", r.URL.Path)}
	if traceID, parent, ok := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader)); ok {
		return tr.StartRemote(name, traceID, parent, attrs...)
	}
	return tr.Start(name, attrs...)
}

// statusWriter captures the status code actually sent, so the request
// counter can distinguish full bodies (200) from Range resumes (206)
// and ETag revalidations (304).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) serveManifest(w http.ResponseWriter, r *http.Request) {
	f, err := os.Open(filepath.Join(s.Dir, manifestName))
	if err != nil {
		http.Error(w, "channel has no manifest", http.StatusNotFound)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json")
	http.ServeContent(w, r, manifestName, time.Time{}, f)
}

// serveContent serves one tarball by manifest file name
// (/updates/<file>) or any advertised content by digest (/blob/<sha256>):
// an update tarball, or a binary delta from blobs/. The lookup goes
// through the verified manifest, never straight to the filesystem. It is
// the one code path every tarball and delta response goes through: the
// opened file hands ServeContent a size and a Seek (that is what makes
// client Range resume work after a truncation) and is read once, as the
// body is written, and the content digest doubles as a strong ETag so
// revalidations come back 304.
func (s *Server) serveContent(w http.ResponseWriter, r *http.Request) {
	index, ok := s.manifestIndex()
	if !ok {
		http.Error(w, "channel has no manifest", http.StatusNotFound)
		return
	}
	f, ok := index[r.URL.Path]
	if !ok {
		http.NotFound(w, r)
		return
	}
	file, err := os.Open(filepath.Join(s.Dir, f.rel))
	if err != nil {
		http.Error(w, "content missing from channel", http.StatusNotFound)
		return
	}
	defer file.Close()
	w.Header().Set("Content-Type", f.ctype)
	if f.etag != "" {
		w.Header().Set("ETag", `"`+f.etag+`"`)
	}
	http.ServeContent(w, r, f.name, time.Time{}, file)
}
