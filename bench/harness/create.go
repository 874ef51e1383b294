package harness

import (
	"fmt"

	"gosplice/internal/codegen"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
)

// createWL is the vendor's workload: ksplice-create for one CVE at a
// time. Each pass takes the next dealt release (runner.release) and all
// of its CVEs in seeded order, and starts from an empty in-memory artifact
// store, as a fresh ksplice-create process would. A pass's first create
// builds the release cold; the rest find the pre build memoized and
// recompile only the units their patch touches.
type createWL struct {
	trees   map[string]*srctree.Tree
	patches map[string]string // by CVE id
	refs    map[string]string // reference tarball digest by CVE id

	evictions float64
}

func newCreate(dir string) (workload, error) {
	w := &createWL{trees: map[string]*srctree.Tree{}, patches: map[string]string{}, refs: map[string]string{}}
	srctree.SetStore(store.MustNew(store.Options{}))
	for _, v := range cvedb.Versions {
		w.trees[v] = cvedb.Tree(v)
		for _, c := range cvedb.ForVersion(v) {
			p := c.Patch()
			w.patches[c.ID] = p
			// The reference takes the uncached build path, so the timed
			// creates (memoized builds) are checked against a second route
			// to the same bytes.
			u, err := core.CreateUpdate(w.trees[v], p, core.CreateOptions{Name: updateName(c)})
			if err != nil {
				return nil, fmt.Errorf("reference create %s: %w", c.ID, err)
			}
			_, digest, _, err := u.EncodeTar()
			if err != nil {
				return nil, fmt.Errorf("reference encode %s: %w", c.ID, err)
			}
			w.refs[c.ID] = digest
		}
	}
	return w, nil
}

func updateName(c *cvedb.CVE) string { return "ksplice-" + c.ID }

func (w *createWL) step(r *runner) error {
	v := r.release()
	cves := cvedb.ForVersion(v)
	st := store.MustNew(store.Options{})
	srctree.SetStore(st)
	for i, j := range r.rng.Perm(len(cves)) {
		c := cves[j]
		kind := "create"
		if i == 0 {
			kind = "create_cold"
		}
		var digest string
		var size int64
		err := r.op(kind, func(root layer) error {
			tree, patch := w.trees[v], w.patches[c.ID]
			l := root.child("srctree.patch")
			post, err := tree.Patch(patch)
			l.end()
			if err != nil {
				return err
			}
			l = root.child("srctree.build_pre")
			_, err = srctree.BuildCached(tree, codegen.KspliceBuild())
			l.end()
			if err != nil {
				return err
			}
			l = root.child("srctree.build_post")
			_, err = srctree.BuildCached(post, codegen.KspliceBuild())
			l.end()
			if err != nil {
				return err
			}
			l = root.child("core.prepost")
			u, err := core.CreateUpdate(tree, patch, core.CreateOptions{Name: updateName(c), BuildCache: true})
			l.end()
			if err != nil {
				return err
			}
			l = root.child("core.tar_encode")
			_, digest, size, err = u.EncodeTar()
			l.end()
			return err
		})
		if err != nil {
			continue
		}
		if err := check(digest == w.refs[c.ID], "%s: tarball digest %.12s, reference %.12s", c.ID, digest, w.refs[c.ID]); err != nil {
			return err
		}
		r.count("core.update_bytes", float64(size))
	}
	if r.measuring {
		w.evictions += float64(st.Stats().Evictions)
	}
	return nil
}

func (w *createWL) report(r *runner, m map[string]float64) {
	all := r.all("create", "create_cold")
	n := len(all)
	m["op_p50_ms"] = median(all)
	m["create_p50_ms"] = r.p50("create")
	r.tail(m, "create_p99_ms", "create", 99)
	m["create_cold_p50_ms"] = r.p50("create_cold")
	m["core.update_bytes"] = r.per("core.update_bytes", n)
	if n > 0 {
		m["store.evictions_per_op"] = w.evictions / float64(n)
	}
	for _, name := range []string{"srctree.patch", "srctree.build_pre", "srctree.build_post", "core.prepost", "core.tar_encode"} {
		m[name+"_ms"] = r.layerMS(name, n)
	}
}

func (w *createWL) close() {}
