package harness

import (
	"bytes"
	"fmt"
	"time"

	"gosplice/internal/codegen"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
)

// stressRounds is the post-apply stress workload, as in the evaluation.
const stressRounds = 20

// applyWL is the operator's workload: one seeded CVE taken through the
// evaluation cycle on a fresh copy-on-write clone of its release's
// kernel — probe shows vulnerable, Apply, probe and exploit show fixed,
// stress, Undo, probe. Updates are created during setup, so no compile
// and no I/O happen in the loop. A clone per op is required: data-
// semantics CVEs keep their repaired data after undo, so a long-lived
// kernel would fail later pre-probes.
type applyWL struct {
	tmpl    map[string]*kernel.Kernel
	cves    []*cvedb.CVE
	updates map[string]*core.Update
}

func newApply(dir string) (workload, error) {
	w := &applyWL{tmpl: map[string]*kernel.Kernel{}, cves: cvedb.All(), updates: map[string]*core.Update{}}
	srctree.SetStore(store.MustNew(store.Options{}))
	for _, v := range cvedb.Versions {
		tree := cvedb.Tree(v)
		br, err := srctree.BuildCached(tree, codegen.KernelBuild())
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", v, err)
		}
		im, err := srctree.LinkKernelCached(br, kernel.KernelBase)
		if err != nil {
			return nil, fmt.Errorf("linking %s: %w", v, err)
		}
		if w.tmpl[v], err = kernel.BootImage(br, im, 0); err != nil {
			return nil, fmt.Errorf("booting %s: %w", v, err)
		}
		for _, c := range cvedb.ForVersion(v) {
			u, err := core.CreateUpdate(tree, c.Patch(), core.CreateOptions{Name: updateName(c), BuildCache: true})
			if err != nil {
				return nil, fmt.Errorf("creating %s: %w", c.ID, err)
			}
			w.updates[c.ID] = u
		}
	}
	return w, nil
}

// cycleOut is what one cycle observed, checked after its timed window.
type cycleOut struct {
	pre, post, undone       int64
	preExploit, postExploit [2]int64 // exit code, uid
	stress                  int64
	applied                 *core.Applied
	k                       *kernel.Kernel
}

func (w *applyWL) step(r *runner) error {
	c := w.cves[r.rng.Intn(len(w.cves))]
	u := w.updates[c.ID]
	var out cycleOut
	err := r.op("cycle", func(root layer) error {
		l := root.child("kernel.clone")
		k, err := w.tmpl[c.Version].Clone()
		l.end()
		if err != nil {
			return err
		}
		out.k = k
		mgr := core.NewManager(k)
		steps0 := k.TotalSteps()
		if out.pre, _, err = runTask(root, k, "probe", c.Probe.Entry, c.Probe.UID, c.Probe.Args...); err != nil {
			return fmt.Errorf("pre-probe: %w", err)
		}
		if c.Exploit != nil {
			if out.preExploit[0], out.preExploit[1], err = runTask(root, k, "exploit", c.Exploit.Entry, c.Exploit.UID); err != nil {
				return fmt.Errorf("pre-exploit: %w", err)
			}
		}

		l = root.child("core.apply")
		a, err := mgr.Apply(u, core.ApplyOptions{})
		d := l.end()
		if err != nil {
			return fmt.Errorf("apply: %w", err)
		}
		out.applied = a
		// Apply reports run-pre matching (which opens it) and the
		// stop_machine window (near its end) as durations; place them as
		// child spans so apply's self time excludes both.
		end := l.t0.Add(d)
		r.rec.record(l, "core.runpre", l.t0, l.t0.Add(a.MatchDuration))
		r.rec.record(l, "kernel.stop_machine", end.Add(-a.Pause), end)
		r.sample("apply_us", float64(d)/float64(time.Microsecond))
		r.sample("pause_us", float64(a.Pause)/float64(time.Microsecond))
		r.count("kernel.stop_machine_attempts", float64(a.Attempts))
		for _, mr := range a.Matches {
			r.count("core.runpre_bytes", float64(mr.BytesMatched))
		}

		if out.post, _, err = runTask(root, k, "probe", c.Probe.Entry, c.Probe.UID, c.Probe.Args...); err != nil {
			return fmt.Errorf("post-probe: %w", err)
		}
		if c.Exploit != nil {
			if out.postExploit[0], out.postExploit[1], err = runTask(root, k, "exploit", c.Exploit.Entry, c.Exploit.UID); err != nil {
				return fmt.Errorf("post-exploit: %w", err)
			}
		}
		l = root.child("vm.stress")
		out.stress, err = k.Call("stress_main", stressRounds)
		l.end()
		if err != nil {
			return fmt.Errorf("stress: %w", err)
		}
		l = root.child("core.undo")
		err = mgr.Undo(core.ApplyOptions{})
		l.end()
		if err != nil {
			return fmt.Errorf("undo: %w", err)
		}
		if out.undone, _, err = runTask(root, k, "probe", c.Probe.Entry, c.Probe.UID, c.Probe.Args...); err != nil {
			return fmt.Errorf("post-undo probe: %w", err)
		}
		r.count("vm.guest_insns", float64(k.TotalSteps()-steps0))
		return nil
	})
	if err != nil {
		return nil
	}
	return checkCycle(c, &out)
}

// checkCycle applies the evaluation's success rule to one cycle, plus
// the undo invariant: every trampoline site reads back its saved bytes.
func checkCycle(c *cvedb.CVE, o *cycleOut) error {
	p := c.Probe
	if err := check(o.pre == p.VulnResult, "%s: pre-probe %d, want vulnerable %d", c.ID, o.pre, p.VulnResult); err != nil {
		return err
	}
	if err := check(o.post == p.FixedResult, "%s: post-probe %d, want fixed %d", c.ID, o.post, p.FixedResult); err != nil {
		return err
	}
	if e := c.Exploit; e != nil {
		ok := o.preExploit[0] == e.WantVuln && (e.EscalatesTo < 0 || o.preExploit[1] == int64(e.EscalatesTo))
		if err := check(ok, "%s: pre-exploit exit %d uid %d", c.ID, o.preExploit[0], o.preExploit[1]); err != nil {
			return err
		}
		ok = o.postExploit[0] == e.WantFixed && o.postExploit[1] != 0
		if err := check(ok, "%s: exploit not blocked (exit %d uid %d)", c.ID, o.postExploit[0], o.postExploit[1]); err != nil {
			return err
		}
	}
	if err := check(o.stress == 0, "%s: stress reported %d inconsistencies", c.ID, o.stress); err != nil {
		return err
	}
	// Undo removes replacement code but leaves data the apply hooks
	// repaired, so a data-semantics probe may keep reading fixed.
	undoOK := o.undone == p.VulnResult || (c.DataSemantics && o.undone == p.FixedResult)
	if err := check(undoOK, "%s: post-undo probe %d, want vulnerable %d", c.ID, o.undone, p.VulnResult); err != nil {
		return err
	}
	for _, tr := range o.applied.Trampolines {
		got, err := o.k.ReadMem(tr.Addr, len(tr.Saved))
		if err != nil {
			return err
		}
		if err := check(bytes.Equal(got, tr.Saved), "%s: %s at %#x not restored by undo", c.ID, tr.Name, tr.Addr); err != nil {
			return err
		}
	}
	return nil
}

// runTask runs a probe or exploit entry point to exit on a fresh task
// with the given credential, returning its exit code and final uid. It
// enters through the base kernel's symbol (which a splice may have
// trampolined), as the evaluation does.
func runTask(root layer, k *kernel.Kernel, what, entry string, uid int, args ...int64) (int64, int64, error) {
	l := root.child("kernel.probe")
	defer l.end()
	var addrs []uint32
	for _, s := range k.Syms.Lookup(entry) {
		if s.Func && s.Module == "" {
			addrs = append(addrs, s.Addr)
		}
	}
	if len(addrs) != 1 {
		return 0, 0, fmt.Errorf("%s entry %q names %d base kernel functions", what, entry, len(addrs))
	}
	t, err := k.SpawnAt(what+":"+entry, addrs[0], uid, args...)
	if err != nil {
		return 0, 0, err
	}
	err = k.RunUntilExit(t, 50_000_000)
	code, tuid := t.ExitCode, t.UID
	k.ReapExited()
	return code, int64(tuid), err
}

func (w *applyWL) report(r *runner, m map[string]float64) {
	n := r.ops("cycle")
	m["op_p50_ms"] = r.p50("cycle")
	m["apply_p50_us"] = r.p50("apply_us")
	r.tail(m, "apply_p99_us", "apply_us", 99)
	m["pause_p50_us"] = r.p50("pause_us")
	r.tail(m, "pause_p99_us", "pause_us", 99)
	m["kernel.stop_machine_attempts_per_apply"] = r.per("kernel.stop_machine_attempts", n)
	m["core.runpre_bytes_per_apply"] = r.per("core.runpre_bytes", n)
	m["vm.guest_insns_per_op"] = r.per("vm.guest_insns", n)
	us := func(name string) float64 { return 1000 * r.layerMS(name, n) }
	m["core.runpre_us"] = us("core.runpre")
	m["core.apply_self_us"] = us("core.apply")
	m["core.undo_us"] = us("core.undo")
	m["kernel.clone_us"] = us("kernel.clone")
	m["kernel.probe_us"] = us("kernel.probe")
	m["vm.stress_ms"] = r.layerMS("vm.stress", n)
	// Guest throughput over the spans that do nothing but interpret:
	// the probes and the stress run.
	if guest := r.layerMS("kernel.probe", n) + r.layerMS("vm.stress", n); guest > 0 {
		m["vm.guest_minsn_per_s"] = m["vm.guest_insns_per_op"] / guest / 1000
	}
}

func (w *applyWL) close() {}
