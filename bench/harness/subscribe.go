package harness

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/codegen"
	"gosplice/internal/core"
	"gosplice/internal/crashpoint"
	"gosplice/internal/cvedb"
	"gosplice/internal/fleet"
	"gosplice/internal/kernel"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
)

// subscribeWL is a machine joining a channel: a fresh machine (empty
// artifact store, new durable state dir, default client config) brought
// to its release's channel head over loopback HTTP — NewClient,
// InstallBase, build/link/boot, Bind, Sync. Steps run in cycles of four:
// three fresh machines of seeded releases, then one that dies at a
// seeded crash point (drawn from those a clean sync of its release
// reaches) and whose restart over the same state dir is timed.
type subscribeWL struct {
	dir   string
	trees map[string]*srctree.Tree
	heads map[string]int
	srvs  map[string]*server

	// From the first clean machine of each release: its kernel memory
	// hash (what a recovered machine must reproduce) and the crash points
	// its sync passed.
	refs  map[string][32]byte
	cells map[string][]cell

	n    int                  // machines brought up so far
	wire map[string][]float64 // bytes over the wire per fresh machine, by release
}

// cell is one crash point: the hit-th pass of label.
type cell struct {
	label string
	hit   int
}

// machine is one simulated subscriber.
type machine struct {
	rel, dir string
	p        *tap
	cl       *channel.Client
	k        *kernel.Kernel
}

func newSubscribe(dir string) (workload, error) {
	w := &subscribeWL{
		dir: dir, trees: map[string]*srctree.Tree{}, heads: map[string]int{}, srvs: map[string]*server{},
		refs: map[string][32]byte{}, cells: map[string][]cell{}, wire: map[string][]float64{},
	}
	srctree.SetStore(store.MustNew(store.Options{}))
	for _, v := range cvedb.Versions {
		cdir, head, err := publish(dir, v)
		if err != nil {
			w.close()
			return nil, err
		}
		srv, err := serve(channel.NewServer(cdir))
		if err != nil {
			w.close()
			return nil, err
		}
		w.srvs[v], w.heads[v], w.trees[v] = srv, head, cvedb.Tree(v)
	}
	return w, nil
}

// publish publishes release v's whole CVE series into a channel
// directory under dir, returning the directory and the channel head.
func publish(dir, v string) (string, int, error) {
	cdir := filepath.Join(dir, "channel-"+v)
	if err := fleet.PublishChannel(cdir, v, false); err != nil {
		return "", 0, err
	}
	m, err := channel.ReadManifest(cdir)
	if err != nil {
		return "", 0, err
	}
	return cdir, len(m.Updates), nil
}

func (w *subscribeWL) step(r *runner) error {
	rels := make([]string, 3)
	for i := range rels {
		rels[i] = r.release()
		if err := w.fresh(r, rels[i]); err != nil {
			return err
		}
	}
	rel := rels[r.rng.Intn(len(rels))]
	cs := w.cells[rel]
	if len(cs) == 0 {
		return nil // every clean machine of rel failed; nothing to crash against
	}
	return w.crashAndRecover(r, rel, cs[r.rng.Intn(len(cs))])
}

// newMachine allocates a machine and its state dir.
func (w *subscribeWL) newMachine(rel string) (*machine, error) {
	w.n++
	dir := filepath.Join(w.dir, fmt.Sprintf("machine-%d", w.n))
	return &machine{rel: rel, dir: dir, p: newTap()}, os.MkdirAll(dir, 0o755)
}

// fresh brings one new machine to the head, timed.
func (w *subscribeWL) fresh(r *runner, rel string) error {
	m, err := w.newMachine(rel)
	if err != nil {
		return err
	}
	defer os.RemoveAll(m.dir)
	err = r.op("subscribe", func(root layer) error { return w.bringUp(root, m, false) })
	if m.cl != nil {
		defer m.cl.Close()
	}
	if err != nil {
		return nil
	}
	if err := check(m.cl.Position() == w.heads[rel], "%s machine reached position %d, head %d", rel, m.cl.Position(), w.heads[rel]); err != nil {
		return err
	}
	if _, ok := w.refs[rel]; !ok {
		r.offClock(func() { w.refs[rel] = memHash(m.k) })
		w.cells[rel] = cellsOf(m.p.hits)
	}
	w.tally(r, m)
	if r.measuring {
		w.wire[rel] = append(w.wire[rel], float64(m.cl.Registry().Snapshot().CounterFamily(channel.MetricBytesOverWire)))
	}
	return nil
}

// crashAndRecover runs a machine whose first life (untimed) dies at c,
// then times its restart over the surviving state dir.
func (w *subscribeWL) crashAndRecover(r *runner, rel string, c cell) error {
	m, err := w.newMachine(rel)
	if err != nil {
		return err
	}
	defer os.RemoveAll(m.dir)
	m.p.death = crashpoint.NewPlan(c.label, c.hit).Hook()
	var death *crashpoint.Death
	r.offClock(func() {
		death = crashpoint.Catch(func() { err = w.bringUp(layer{t0: time.Now()}, m, false) })
		if m.cl != nil {
			m.cl.Close()
		}
	})
	if death == nil {
		return check(false, "%s machine survived crash point %s hit %d (err %v)", rel, c.label, c.hit, err)
	}

	m2 := &machine{rel: rel, dir: m.dir, p: newTap()}
	err = r.op("recover", func(root layer) error { return w.bringUp(root, m2, true) })
	if m2.cl != nil {
		defer m2.cl.Close()
	}
	if err != nil {
		return nil
	}
	if err := check(m2.cl.Position() == w.heads[rel], "%s machine recovered from %s hit %d to position %d, head %d",
		rel, c.label, c.hit, m2.cl.Position(), w.heads[rel]); err != nil {
		return err
	}
	var h [32]byte
	r.offClock(func() { h = memHash(m2.k) })
	if err := check(h == w.refs[rel], "%s machine recovered from %s hit %d: kernel memory differs from a never-crashed machine",
		rel, c.label, c.hit); err != nil {
		return err
	}
	w.tally(r, m2)
	r.count("channel.journal_replayed", float64(m2.cl.Registry().Snapshot().CounterFamily(channel.MetricJournalReplays)))
	return nil
}

// bringUp is a machine's life from power-on to channel head. restore
// selects the restart path: journal recovery instead of a plain bind.
func (w *subscribeWL) bringUp(root layer, m *machine, restore bool) error {
	ctx := context.Background()
	srctree.SetStore(store.MustNew(store.Options{})) // a new process's empty store
	p := m.p
	l := root.child("channel.new_client")
	// The blob cache NewClient would build for this state dir, wrapped.
	bc, err := channel.NewDirBlobCacheMax(filepath.Join(m.dir, "blob-cache"), channel.DefaultBlobCacheBytes)
	if err == nil {
		bc.SetCrashHook(p.crash)
		m.cl, err = channel.NewClient(channel.ClientConfig{
			Name:          fmt.Sprintf("m%d-%s", w.n, m.rel),
			Transport:     channel.NewHTTPTransport(w.srvs[m.rel].url, channel.HTTPOptions{Seed: int64(w.n)}),
			WrapTransport: p.wrap,
			StateDir:      m.dir,
			Crash:         p.crash,
			Blobs:         &timedBlobs{c: bc, p: p},
		})
	}
	l.end()
	if err != nil {
		return err
	}
	p.parent = root.child("channel.install_base")
	_, _, err = m.cl.InstallBase(ctx)
	p.parent.end()
	if err != nil {
		return fmt.Errorf("install base: %w", err)
	}
	l = root.child("srctree.build")
	br, err := srctree.BuildCached(w.trees[m.rel], codegen.KernelBuild())
	l.end()
	if err != nil {
		return err
	}
	l = root.child("srctree.link")
	im, err := srctree.LinkKernelCached(br, kernel.KernelBase)
	l.end()
	if err != nil {
		return err
	}
	l = root.child("kernel.boot")
	m.k, err = kernel.BootImage(br, im, 0)
	l.end()
	if err != nil {
		return err
	}
	mgr := core.NewManager(m.k)
	if restore {
		p.parent = root.child("channel.restore")
		_, err = m.cl.RestoreMachine(ctx, mgr, 0)
		p.parent.end()
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
	} else {
		p.parent = root.child("channel.bind")
		m.cl.Bind(mgr, 0)
		p.parent.end()
	}
	p.parent = root.child("channel.sync")
	_, err = m.cl.Sync(ctx)
	p.parent.end()
	if err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	return nil
}

// tally adds a timed machine's tap and client counters.
func (w *subscribeWL) tally(r *runner, m *machine) {
	snap := m.cl.Registry().Snapshot()
	r.count("channel.requests", float64(m.p.requests))
	r.count("channel.tarball_bytes", float64(m.p.tarballBytes))
	r.count("channel.blob_bytes", float64(m.p.blobBytes))
	r.count("channel.blobcache_puts", float64(m.p.puts))
	r.count("channel.durable_writes", float64(m.p.writes()))
	r.count("channel.delta_applied", float64(snap.CounterFamily("gosplice_channel_delta_applied_total")))
	r.count("channel.delta_fallback", float64(snap.CounterFamily(channel.MetricDeltaFallback)))
}

// cellsOf lists every (label, hit) a clean run passed, in a fixed order.
func cellsOf(hits map[string]int) []cell {
	var out []cell
	for _, label := range sortedKeys(hits) {
		for i := 1; i <= hits[label]; i++ {
			out = append(out, cell{label, i})
		}
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// memHash fingerprints a kernel's whole memory.
func memHash(k *kernel.Kernel) [32]byte {
	k.Lock()
	defer k.Unlock()
	return sha256.Sum256(k.LockedMem().Bytes())
}

func (w *subscribeWL) report(r *runner, m map[string]float64) {
	n := r.ops("subscribe", "recover")
	m["op_p50_ms"] = r.p50("subscribe")
	m["subscribe_p50_ms"] = m["op_p50_ms"]
	r.tail(m, "subscribe_p90_ms", "subscribe", 90)
	m["recover_p50_ms"] = r.p50("recover")
	// Wire bytes are a property of the release, so average per release
	// first: the figure then does not depend on the seeded release mix.
	var sum float64
	for _, rel := range sortedKeys(w.wire) {
		var s float64
		for _, b := range w.wire[rel] {
			s += b
		}
		sum += s / float64(len(w.wire[rel]))
	}
	if len(w.wire) > 0 {
		m["wire_kb_per_machine"] = sum / float64(len(w.wire)) / 1024
	}
	for _, name := range []string{"requests", "blobcache_puts", "durable_writes", "blob_bytes", "tarball_bytes", "delta_applied", "delta_fallback"} {
		m["channel."+name+"_per_op"] = r.per("channel."+name, n)
	}
	m["channel.journal_replayed_per_recover"] = r.per("channel.journal_replayed", r.ops("recover"))
	for _, name := range []string{"channel.new_client", "channel.bind", "channel.transport", "channel.blobcache_get", "channel.blobcache_put", "srctree.build", "srctree.link", "kernel.boot"} {
		m[name+"_ms"] = r.layerMS(name, n)
	}
	m["channel.install_base_ms"] = r.durMS("channel.install_base", n)
	m["channel.install_self_ms"] = r.layerMS("channel.install_base", n)
	m["channel.sync_ms"] = r.durMS("channel.sync", n)
	m["channel.sync_self_ms"] = r.layerMS("channel.sync", n)
	m["channel.restore_ms"] = r.durMS("channel.restore", r.ops("recover"))
}

func (w *subscribeWL) close() {
	for _, s := range w.srvs {
		s.close()
	}
}
