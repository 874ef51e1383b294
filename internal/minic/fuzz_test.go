package minic_test

import (
	"strings"
	"testing"
	"time"

	"gosplice/internal/cvedb"
	"gosplice/internal/minic"
)

// FuzzParse feeds Parse arbitrary source as the unit fuzz.mc, whose
// #includes resolve against the newest corpus release. It is seeded with
// every unit of every corpus release and every header they include.
// Parse must return a unit or an error, never both or neither, and must
// neither panic nor hang: the parser looks past the current token, so
// each lookahead at the end of input must read EOF and stop.
func FuzzParse(f *testing.F) {
	seeds := map[string]bool{}
	for _, v := range cvedb.Versions {
		tree := cvedb.Tree(v)
		var add func(path string)
		add = func(path string) {
			src, ok := tree.File(path)
			if !ok || seeds[src] {
				return
			}
			seeds[src] = true
			f.Add(src)
			for _, line := range strings.Split(src, "\n") {
				if inc, ok := strings.CutPrefix(strings.TrimSpace(line), `#include "`); ok {
					add(strings.TrimSuffix(inc, `"`))
				}
			}
		}
		for _, u := range tree.Units() {
			add(u)
		}
	}
	tree := cvedb.Tree(cvedb.Versions[len(cvedb.Versions)-1])
	f.Fuzz(func(t *testing.T, src string) {
		provider := func(p string) (string, bool) {
			if p == "fuzz.mc" {
				return src, true
			}
			return tree.File(p)
		}
		type result struct {
			u   *minic.Unit
			err error
		}
		done := make(chan result, 1)
		go func() {
			u, err := minic.Parse("fuzz.mc", provider)
			done <- result{u, err}
		}()
		select {
		case r := <-done:
			if (r.u == nil) == (r.err == nil) {
				t.Fatalf("Parse returned unit %v and error %v", r.u, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Parse of %d bytes did not return", len(src))
		}
	})
}
