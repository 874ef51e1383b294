package channel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gosplice/internal/diffutil"
	"gosplice/internal/srctree"
)

// tinyChannel publishes n one-line updates of a one-function release
// into a fresh directory and returns the publisher. Each update's
// tarball shares most of its bytes with the previous one, so every
// update after the first is also advertised as a delta.
func tinyChannel(t *testing.T, n int) *Publisher {
	t.Helper()
	pub, err := NewPublisher(t.TempDir(), srctree.New("tiny-1.0", map[string]string{"f.mc": tinySource(0)}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		publishTiny(t, pub, i)
	}
	return pub
}

func tinySource(i int) string { return fmt.Sprintf("int f(void) { return %d; }\n", i) }

// publishTiny publishes update i of a tiny channel.
func publishTiny(t *testing.T, pub *Publisher, i int) {
	t.Helper()
	patch := diffutil.DiffFiles("f.mc", tinySource(i), tinySource(i+1))
	if _, err := pub.Publish(fmt.Sprintf("u%d", i), "", patch); err != nil {
		t.Fatal(err)
	}
}

// headPaths returns the request paths of the channel head: its tarball
// by name and by digest, and the delta that reconstructs it.
func headPaths(t *testing.T, dir string) []string {
	t.Helper()
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := m.Updates[len(m.Updates)-1]
	d := m.DeltaFor(e.Sha256)
	if d == nil {
		t.Fatalf("no delta advertised for %s", e.Name)
	}
	return []string{"/updates/" + e.File, "/blob/" + e.Sha256, "/blob/" + d.Sha256}
}

// TestServerManifestFreshness: one live server answers from the
// manifest on disk as it is at each request. An update published
// between requests is served at once; a manifest whose digest no longer
// matches its contents, or one torn in half, turns every content route
// into a 404 even though the server has served a good manifest before;
// restoring the good bytes brings the routes back.
func TestServerManifestFreshness(t *testing.T) {
	pub := tinyChannel(t, 2)
	srv := httptest.NewServer(NewServer(pub.Dir))
	defer srv.Close()
	expect := func(step string, paths []string, want int) {
		t.Helper()
		for _, p := range paths {
			resp, err := http.Get(srv.URL + p)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s: GET %s = %d, want %d", step, p, resp.StatusCode, want)
			}
		}
	}
	old := headPaths(t, pub.Dir)
	expect("warm", old, http.StatusOK)
	expect("warm again", old, http.StatusOK)

	publishTiny(t, pub, 2)
	paths := append(headPaths(t, pub.Dir), old...)
	expect("after publish", paths, http.StatusOK)

	manifest := filepath.Join(pub.Dir, manifestName)
	good, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(good, &m); err != nil {
		t.Fatal(err)
	}
	m.Updates[0].PatchLines++ // the digest still names the old contents
	tampered, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		step string
		b    []byte
	}{{"tampered", tampered}, {"torn", good[:len(good)/2]}} {
		if err := os.WriteFile(manifest, bad.b, 0o644); err != nil {
			t.Fatal(err)
		}
		expect(bad.step, paths, http.StatusNotFound)
	}

	if err := os.WriteFile(manifest, good, 0o644); err != nil {
		t.Fatal(err)
	}
	expect("restored", paths, http.StatusOK)
}

// TestServerWarmBlobAllocs gates the per-request cost of a warm
// content request: on a 16-update channel, serving a delta by digest
// through ServeHTTP re-reads the manifest's bytes but decodes nothing,
// so it allocates what routing, telemetry and the response need (about
// 60 times), not what decoding and verifying the manifest would (about
// 200 times in all).
func TestServerWarmBlobAllocs(t *testing.T) {
	pub := tinyChannel(t, 16)
	s := NewServer(pub.Dir)
	req := httptest.NewRequest(http.MethodGet, headPaths(t, pub.Dir)[2], nil)
	serve := func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", req.URL.Path, rec.Code)
		}
	}
	serve()
	allocs := testing.AllocsPerRun(50, serve)
	t.Logf("warm blob request: %.0f allocs", allocs)
	if allocs > 120 {
		t.Errorf("warm blob request allocated %.0f times, want at most 120", allocs)
	}
	want, err := os.ReadFile(filepath.Join(pub.Dir, blobsDirName, req.URL.Path[len("/blob/"):]))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("served %d bytes, want the %d-byte delta", rec.Body.Len(), len(want))
	}
}

// TestServerConcurrentPublish: handlers share the memo while the
// publisher appends. Content advertised before a publish stays
// servable through it, and the new head is servable once Publish
// returns. Run it under -race.
func TestServerConcurrentPublish(t *testing.T) {
	pub := tinyChannel(t, 2)
	s := NewServer(pub.Dir)
	paths := headPaths(t, pub.Dir)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				p := paths[i%len(paths)]
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s = %d during publish", p, rec.Code)
					return
				}
			}
		}()
	}
	for i := 2; i < 6; i++ {
		publishTiny(t, pub, i)
		for _, p := range headPaths(t, pub.Dir) {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("GET %s = %d after publishing it", p, rec.Code)
			}
		}
	}
	close(stop)
	wg.Wait()
}
