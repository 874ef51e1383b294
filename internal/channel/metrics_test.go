// Telemetry-focused channel tests: the deterministic single-corruption
// integrity invariant, and the server's live scrape surface.
package channel_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gosplice/internal/channel"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	_ "gosplice/internal/eval" // registers the gosplice_eval_* families
	"gosplice/internal/faultinject"
	"gosplice/internal/kernel"
	"gosplice/internal/telemetry"
)

// publishOne creates a channel directory with a single published update
// for the first CVE of the first release, and boots a matching kernel.
func publishOne(t *testing.T) (dir string, k *kernel.Kernel, cve *cvedb.CVE) {
	t.Helper()
	version := cvedb.Versions[0]
	cve = cvedb.ForVersion(version)[0]
	dir = t.TempDir()
	pub, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish("ksplice-"+cve.ID, cve.ID, cve.Patch()); err != nil {
		t.Fatal(err)
	}
	k, err = kernel.Boot(cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	return dir, k, cve
}

// TestIntegrityRefetchCounterExact pins the strongest form of the soak's
// bounded invariant: with exactly one client-side corruption reaching
// the subscriber, the integrity-refetch counter moves by exactly one and
// the update still applies from clean bytes.
func TestIntegrityRefetchCounterExact(t *testing.T) {
	dir, k, _ := publishOne(t)
	mgr := core.NewManager(k)

	// Op 1 is the manifest, op 2 the only tarball fetch: flip one bit in
	// it. The refetch (op 3) is clean.
	plan := faultinject.New(faultinject.Fault{Op: 2, Kind: faultinject.FlipBit, Offset: 100, Bit: 3})
	tr := faultinject.WrapTransport(channel.NewDirTransport(dir), plan)

	before := telemetry.Default().Snapshot()
	applied, err := channel.SyncOnce(context.Background(), tr, mgr, 0, channel.ClientConfig{})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if len(applied) != 1 {
		t.Fatalf("applied %d updates, want 1", len(applied))
	}
	after := telemetry.Default().Snapshot()
	delta := func(id string) uint64 { return after.Counter(id) - before.Counter(id) }

	if got := delta("gosplice_channel_integrity_refetches_total"); got != 1 {
		t.Errorf("integrity refetches moved %d, want exactly 1", got)
	}
	if got := delta("gosplice_channel_updates_applied_total"); got != 1 {
		t.Errorf("applied counter moved %d, want 1", got)
	}
	if got := delta("gosplice_channel_subscribe_degraded_total"); got != 0 {
		t.Errorf("degraded counter moved %d on a successful subscribe", got)
	}
	if got := injected(plan, faultinject.FlipBit); got != 1 {
		t.Errorf("plan fired %d FlipBits, want 1", got)
	}
}

// TestServerMetricsRoutes: a serving channel exposes /metrics with valid
// exposition covering the store, channel, and eval families, /debug/vars
// as JSON, and counts Range (206) and ETag (304) outcomes per route.
func TestServerMetricsRoutes(t *testing.T) {
	dir, _, _ := publishOne(t)
	srv := httptest.NewServer(channel.NewServer(dir))
	defer srv.Close()

	m, err := channel.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	entry := m.Updates[0]

	get := func(path string, hdr map[string]string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	before := telemetry.Default().Snapshot()

	if resp, _ := get("/channel.json", nil); resp.StatusCode != 200 {
		t.Fatalf("manifest: %s", resp.Status)
	}
	if resp, _ := get("/updates/"+entry.File, map[string]string{"Range": "bytes=100-"}); resp.StatusCode != http.StatusPartialContent {
		t.Errorf("range request: %s, want 206", resp.Status)
	}
	if resp, _ := get("/updates/"+entry.File, map[string]string{"If-None-Match": `"` + entry.Sha256 + `"`}); resp.StatusCode != http.StatusNotModified {
		t.Errorf("etag revalidation: %s, want 304", resp.Status)
	}
	if resp, _ := get("/updates/nope.tar", nil); resp.StatusCode != 404 {
		t.Errorf("missing update: %s, want 404", resp.Status)
	}

	resp, body := get("/metrics", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if err := telemetry.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	for _, family := range []string{"gosplice_store_", "gosplice_channel_", "gosplice_eval_"} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics lacks %s* families", family)
		}
	}

	if resp, body := get("/debug/vars", nil); resp.StatusCode != 200 || !strings.HasPrefix(strings.TrimSpace(string(body)), "{") {
		t.Errorf("/debug/vars: %s, body %.40q", resp.Status, body)
	}

	after := telemetry.Default().Snapshot()
	for _, id := range []string{
		`gosplice_channel_requests_total{code="200",route="manifest"}`,
		`gosplice_channel_requests_total{code="206",route="update"}`,
		`gosplice_channel_requests_total{code="304",route="update"}`,
		`gosplice_channel_requests_total{code="404",route="update"}`,
	} {
		if after.Counter(id) <= before.Counter(id) {
			t.Errorf("counter %s never moved", id)
		}
	}
	if after.Histograms[`gosplice_channel_request_seconds{route="update"}`].Count <=
		before.Histograms[`gosplice_channel_request_seconds{route="update"}`].Count {
		t.Errorf("request latency histogram never observed")
	}
}

// TestServerMetricsNotCountedAsTraffic: scraping /metrics must not move
// the channel request counters it reports.
func TestServerMetricsNotCountedAsTraffic(t *testing.T) {
	srv := httptest.NewServer(channel.NewServer(t.TempDir()))
	defer srv.Close()
	scrape := func() {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	before := telemetry.Default().Snapshot().CounterFamily("gosplice_channel_requests_total")
	for i := 0; i < 5; i++ {
		scrape()
	}
	after := telemetry.Default().Snapshot().CounterFamily("gosplice_channel_requests_total")
	if after != before {
		t.Errorf("scraping /metrics moved the request counters by %d", after-before)
	}
}
