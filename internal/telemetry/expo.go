package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
)

// This file is the live-introspection surface: the Prometheus text
// exposition (hand-rolled, format version 0.0.4), the /debug/vars JSON
// snapshot, a syntax validator for the exposition (used by the CI
// scrape smoke), and the HTTP plumbing every cmd tool's -metrics-addr
// flag and channel.Server's /metrics route share. Each renders one
// registry; the live endpoints render Default, which already holds the
// sum of every instance registry (see Registry), so no scrape merges
// anything at read time.

// WritePrometheus renders a snapshot of r in Prometheus text
// exposition format. Output is deterministic: families sort
// alphabetically, children sort by canonical id, histograms expand into
// cumulative _bucket/_sum/_count series.
func WritePrometheus(w io.Writer, r *Registry) error {
	s := r.Snapshot()
	type sample struct {
		id    string
		value string
	}
	type family struct {
		typ     string
		samples []sample
	}
	families := map[string]*family{}
	add := func(name, typ, id, value string) {
		f, ok := families[name]
		if !ok {
			f = &family{typ: typ}
			families[name] = f
		}
		f.samples = append(f.samples, sample{id: id, value: value})
	}
	for id, v := range s.Counters {
		add(familyOf(id), "counter", id, strconv.FormatUint(v, 10))
	}
	for id, v := range s.Gauges {
		add(familyOf(id), "gauge", id, strconv.FormatInt(v, 10))
	}
	for id, h := range s.Histograms {
		name := familyOf(id)
		f, ok := families[name]
		if !ok {
			f = &family{typ: "histogram"}
			families[name] = f
		}
		var cum uint64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			f.samples = append(f.samples, sample{
				id:    withLabel(id, "_bucket", "le", formatFloat(b)),
				value: strconv.FormatUint(cum, 10),
			})
		}
		cum += h.Counts[len(h.Bounds)]
		f.samples = append(f.samples,
			sample{id: withLabel(id, "_bucket", "le", "+Inf"), value: strconv.FormatUint(cum, 10)},
			sample{id: suffixed(id, "_sum"), value: formatFloat(h.Sum)},
			sample{id: suffixed(id, "_count"), value: strconv.FormatUint(h.Count, 10)},
		)
	}
	// Families with registered help but no children yet still expose
	// their metadata, so a fresh process scrapes a complete taxonomy.
	for name := range s.Help {
		if _, ok := families[name]; !ok {
			families[name] = &family{typ: "untyped"}
		}
	}
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		f := families[name]
		if help, ok := s.Help[name]; ok {
			fmt.Fprintf(&buf, "# HELP %s %s\n", name, strings.ReplaceAll(help, "\n", " "))
		}
		fmt.Fprintf(&buf, "# TYPE %s %s\n", name, f.typ)
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].id < f.samples[j].id })
		for _, sm := range f.samples {
			fmt.Fprintf(&buf, "%s %s\n", sm.id, sm.value)
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// suffixed appends a name suffix to a metric id, before any label set:
// name{a="b"} + "_sum" -> name_sum{a="b"}.
func suffixed(id, suffix string) string {
	if i := strings.IndexByte(id, '{'); i >= 0 {
		return id[:i] + suffix + id[i:]
	}
	return id + suffix
}

// withLabel appends a name suffix and one more label to a metric id.
func withLabel(id, suffix, key, value string) string {
	id = suffixed(id, suffix)
	if i := strings.IndexByte(id, '{'); i >= 0 {
		return id[:len(id)-1] + "," + key + "=" + strconv.Quote(value) + "}"
	}
	return id + "{" + key + "=" + strconv.Quote(value) + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSON renders a snapshot of r as indented JSON — the /debug/vars
// body. encoding/json sorts map keys, so the output is deterministic for
// a fixed snapshot.
func WriteJSON(w io.Writer, r *Registry) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Handler serves /metrics (Prometheus text) and /debug/vars (JSON) from
// reg, snapshotted per request. Any other path 404s.
func Handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			WritePrometheus(w, reg)
		case "/debug/vars", "/debug/vars/":
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			WriteJSON(w, reg)
		default:
			http.NotFound(w, r)
		}
	})
}

// HTTPHandler is Handler over Default — the process-wide scrape
// surface, which every instance registry rolls up into.
func HTTPHandler() http.Handler { return Handler(Default()) }

// ServeLoopback starts serving /metrics, /debug/vars, and the
// net/http/pprof profile endpoints under /debug/pprof/ on addr (pass
// host:0 for an ephemeral port) and returns the bound address and a
// stop function. This is what every cmd tool's -metrics-addr flag runs
// — CPU/heap/mutex profiles are grabbable during a live fleet run
// without a -cpuprofile restart; the empty addr is a no-op so callers
// can pass the flag through unconditionally.
func ServeLoopback(addr string) (bound string, stop func(), err error) {
	if addr == "" {
		return "", func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", HTTPHandler())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}

// --- Exposition validation ---

// ValidateExposition checks b against the Prometheus text exposition
// syntax: well-formed metric names and label sets, float-parseable
// values, known TYPE declarations, each family's TYPE declared at most
// once, and each family's samples contiguous. It returns the first
// violation with its line number. An empty exposition (no samples at
// all) is an error — a scrape that returns nothing proves nothing.
func ValidateExposition(b []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	typed := map[string]bool{}
	closed := map[string]bool{} // families whose sample block has ended
	current := ""
	samples := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !validMetricName(name) {
				return fmt.Errorf("line %d: invalid metric name %q in %s", lineNo, name, fields[1])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: TYPE needs a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
				}
				if typed[name] {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				typed[name] = true
			}
			continue
		}
		name, rest, err := parseSampleName(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := baseFamily(name)
		if fam != current {
			if closed[fam] {
				return fmt.Errorf("line %d: samples of %s are not contiguous", lineNo, fam)
			}
			if current != "" {
				closed[current] = true
			}
			current = fam
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return fmt.Errorf("line %d: want value [timestamp], got %q", lineNo, rest)
		}
		if !validSampleValue(fields[0]) {
			return fmt.Errorf("line %d: bad sample value %q", lineNo, fields[0])
		}
		if len(fields) == 2 {
			if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
				return fmt.Errorf("line %d: bad timestamp %q", lineNo, fields[1])
			}
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("exposition has no samples")
	}
	return nil
}

// baseFamily maps a sample name to its family, folding histogram
// series suffixes so name_bucket/name_sum/name_count group with their
// TYPE comment's family name.
func baseFamily(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suffix); base != name {
			return base
		}
	}
	return name
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validSampleValue(s string) bool {
	switch s {
	case "+Inf", "-Inf", "NaN", "Nan":
		return true
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// parseSampleName splits one sample line into its metric name (labels
// validated and consumed) and the remainder (value, optional
// timestamp).
func parseSampleName(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("no value on sample line %q", line)
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	if line[i] == ' ' {
		return name, line[i+1:], nil
	}
	// Parse the label set: key="value" pairs, comma-separated, with
	// \\, \", and \n escapes inside values.
	pos := i + 1
	for {
		if pos >= len(line) {
			return "", "", fmt.Errorf("unterminated label set")
		}
		if line[pos] == '}' {
			pos++
			break
		}
		eq := strings.IndexByte(line[pos:], '=')
		if eq < 0 {
			return "", "", fmt.Errorf("label without '='")
		}
		key := line[pos : pos+eq]
		if !validLabelName(key) {
			return "", "", fmt.Errorf("invalid label name %q", key)
		}
		pos += eq + 1
		if pos >= len(line) || line[pos] != '"' {
			return "", "", fmt.Errorf("label %s: unquoted value", key)
		}
		pos++
		for {
			if pos >= len(line) {
				return "", "", fmt.Errorf("label %s: unterminated value", key)
			}
			if line[pos] == '\\' {
				if pos+1 >= len(line) {
					return "", "", fmt.Errorf("label %s: dangling escape", key)
				}
				pos += 2
				continue
			}
			if line[pos] == '"' {
				pos++
				break
			}
			pos++
		}
		if pos < len(line) && line[pos] == ',' {
			pos++
		}
	}
	if pos >= len(line) || line[pos] != ' ' {
		return "", "", fmt.Errorf("no value after label set")
	}
	return name, line[pos+1:], nil
}
