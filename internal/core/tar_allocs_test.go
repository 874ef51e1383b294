package core

import (
	"sync"
	"testing"

	"gosplice/internal/cvedb"
)

var (
	corpusTarsOnce sync.Once
	corpusTars     [][]byte
	corpusTarsErr  error
)

// corpusTarballs returns the tarball of every corpus CVE's update, each
// built against its release's base tree, as a channel would publish it.
// The 64 creates run once per test binary.
func corpusTarballs(t testing.TB) [][]byte {
	t.Helper()
	corpusTarsOnce.Do(func() {
		for _, c := range cvedb.All() {
			u, err := CreateUpdate(cvedb.Tree(c.Version), c.Patch(), CreateOptions{Name: "ksplice-" + c.ID})
			if err != nil {
				corpusTarsErr = err
				return
			}
			b, _, _, err := u.EncodeTar()
			if err != nil {
				corpusTarsErr = err
				return
			}
			corpusTars = append(corpusTars, b)
		}
	})
	if corpusTarsErr != nil {
		t.Fatal(corpusTarsErr)
	}
	return corpusTars
}

// TestReadTarVerifiedAllocs gates what a subscriber pays to verify and
// decode one update: the mean allocation count of ReadTarVerified over
// the 64 corpus tarballs. Members decode in place from the verified
// bytes and each object's sections and symbols share one backing slice
// each, so the count follows the number of members and metadata
// strings; a bufio.Reader per member, a json.Decoder and one heap
// object per section, symbol and name took about 164.
func TestReadTarVerifiedAllocs(t *testing.T) {
	const ceiling = 100
	tars := corpusTarballs(t)
	var total float64
	for _, b := range tars {
		digest, size := TarDigest(b)
		total += testing.AllocsPerRun(5, func() {
			if _, err := ReadTarVerified(b, digest, size); err != nil {
				t.Fatal(err)
			}
		})
	}
	mean := total / float64(len(tars))
	t.Logf("ReadTarVerified: %.1f allocs on average over %d tarballs", mean, len(tars))
	if mean > ceiling {
		t.Errorf("ReadTarVerified allocates %.1f times on average, want at most %d", mean, ceiling)
	}
}
