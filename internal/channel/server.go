package channel

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
// refetching the whole thing. The manifest is re-read per request, so a
// publisher appending to the directory is picked up immediately, and only
// files the manifest names are ever served (no path traversal).
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
	//	GET  /fleet/vars     merged raw snapshot across all sources
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
	case "update":
		s.serveUpdate(sw, r, strings.TrimPrefix(r.URL.Path, "/updates/"))
	case "blob":
		s.serveBlob(sw, r, strings.TrimPrefix(r.URL.Path, "/blob/"))
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
	b, err := os.ReadFile(filepath.Join(s.Dir, manifestName))
	if err != nil {
		http.Error(w, "channel has no manifest", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	http.ServeContent(w, r, manifestName, time.Time{}, bytes.NewReader(b))
}

// serveUpdate serves one tarball addressed by manifest file name. The
// lookup goes through the manifest, never straight to the filesystem.
func (s *Server) serveUpdate(w http.ResponseWriter, r *http.Request, file string) {
	m, err := ReadManifest(s.Dir)
	if err != nil {
		http.Error(w, "channel has no manifest", http.StatusNotFound)
		return
	}
	for i := range m.Updates {
		e := &m.Updates[i]
		if e.File == file {
			s.serveVerifiable(w, r, filepath.Base(e.File), e.File, "application/x-tar", e.Sha256)
			return
		}
	}
	http.NotFound(w, r)
}

// serveBlob serves one content-addressed blob: an update tarball by its
// digest, or a binary delta from blobs/. Only digests the manifest
// advertises are ever served.
func (s *Server) serveBlob(w http.ResponseWriter, r *http.Request, digest string) {
	m, err := ReadManifest(s.Dir)
	if err != nil {
		http.Error(w, "channel has no manifest", http.StatusNotFound)
		return
	}
	for i := range m.Updates {
		e := &m.Updates[i]
		if e.Sha256 == digest {
			s.serveVerifiable(w, r, filepath.Base(e.File), e.File, "application/x-tar", e.Sha256)
			return
		}
	}
	if m.blobAdvertised(digest) {
		rel := filepath.Join(blobsDirName, filepath.Base(digest))
		s.serveVerifiable(w, r, rel, digest, "application/octet-stream", digest)
		return
	}
	http.NotFound(w, r)
}

// serveVerifiable is the one code path every tarball and delta
// response goes through: a bytes.Reader hands ServeContent a size
// and a Seek (that is what makes client Range resume work after a
// truncation), and the content digest doubles as a strong ETag so
// revalidations come back 304. rel is the file's path under Dir; name
// is what ServeContent reports.
func (s *Server) serveVerifiable(w http.ResponseWriter, r *http.Request, rel, name, ctype, etag string) {
	b, err := os.ReadFile(filepath.Join(s.Dir, rel))
	if err != nil {
		http.Error(w, "content missing from channel", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", ctype)
	if etag != "" {
		w.Header().Set("ETag", `"`+etag+`"`)
	}
	http.ServeContent(w, r, name, time.Time{}, bytes.NewReader(b))
}
