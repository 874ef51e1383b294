package eval

import (
	"strings"
	"testing"

	"gosplice/internal/cvedb"
)

// TestRunPopulatesCacheStats: a run over a few patches of one release
// must attribute cache activity to itself — the post builds of each patch
// share the release's unchanged units, so the unit cache sees hits.
func TestRunPopulatesCacheStats(t *testing.T) {
	ids := map[string]bool{}
	version := cvedb.Versions[0]
	for i, c := range cvedb.ForVersion(version) {
		if i < 3 {
			ids[c.ID] = true
		}
	}
	if len(ids) < 2 {
		t.Skipf("release %s has %d patches, need 2+", version, len(ids))
	}
	res, err := Run(Options{Only: ids, StressRounds: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cache
	if c.UnitHits == 0 {
		t.Errorf("no unit cache hits across %d patches of one release: %+v", len(ids), c)
	}
	table := res.CacheTable()
	for _, want := range []string{"unit compile cache", "% hit"} {
		if !strings.Contains(table, want) {
			t.Errorf("cache table missing %q:\n%s", want, table)
		}
	}
	if !strings.Contains(res.Report(), "Incremental create cache") {
		t.Error("full report omits the cache table")
	}
}
