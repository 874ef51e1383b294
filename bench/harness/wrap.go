package harness

import (
	"context"
	"net"
	"net/http"

	"gosplice/internal/channel"
)

// tap observes one subscriber machine from outside the channel
// package: the transport and blob-cache wrappers time every call as a
// child of whichever client call is in flight (parent), and the crash
// hook counts durable-write crash points, forwarding to a death schedule
// when one is armed. A machine is driven by one goroutine, so tap
// needs no locking.
type tap struct {
	parent layer

	requests, tarballBytes, blobBytes int
	puts                              int
	hits                              map[string]int // crash-hook hits by label
	death                             func(label string)
}

func newTap() *tap { return &tap{hits: map[string]int{}} }

// crash is the client's crashpoint.Hook.
func (p *tap) crash(label string) {
	p.hits[label]++
	if p.death != nil {
		p.death(label)
	}
}

// writes is how many crash points the machine passed.
func (p *tap) writes() int {
	n := 0
	for _, h := range p.hits {
		n += h
	}
	return n
}

// wrap is the client's ClientConfig.WrapTransport.
func (p *tap) wrap(t channel.Transport) channel.Transport { return &timedTransport{t: t, p: p} }

type timedTransport struct {
	t channel.Transport
	p *tap
}

func (t *timedTransport) Manifest(ctx context.Context) (*channel.Manifest, error) {
	l := t.p.parent.child("channel.transport")
	m, err := t.t.Manifest(ctx)
	l.end()
	t.p.requests++
	return m, err
}

func (t *timedTransport) Fetch(ctx context.Context, e channel.Entry) ([]byte, error) {
	l := t.p.parent.child("channel.transport")
	b, err := t.t.Fetch(ctx, e)
	l.end()
	t.p.requests++
	t.p.tarballBytes += len(b)
	return b, err
}

func (t *timedTransport) FetchBlob(ctx context.Context, digest string, size int64) ([]byte, error) {
	l := t.p.parent.child("channel.transport")
	b, err := t.t.FetchBlob(ctx, digest, size)
	l.end()
	t.p.requests++
	t.p.blobBytes += len(b)
	return b, err
}

// timedBlobs wraps the machine's DirBlobCache.
type timedBlobs struct {
	c *channel.DirBlobCache
	p *tap
}

func (b *timedBlobs) Get(digest string) ([]byte, bool) {
	l := b.p.parent.child("channel.blobcache_get")
	v, ok := b.c.Get(digest)
	l.end()
	return v, ok
}

func (b *timedBlobs) Put(digest string, v []byte) {
	l := b.p.parent.child("channel.blobcache_put")
	b.c.Put(digest, v)
	l.end()
	b.p.puts++
}

// server is one loopback HTTP server the benchmark runs.
type server struct {
	hs   *http.Server
	done chan struct{}
	url  string
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{hs: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops the server and waits for its serve loop to exit.
func (s *server) close() {
	s.hs.Close()
	<-s.done
}
