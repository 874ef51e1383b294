package harness

import (
	"context"
	"fmt"
	"strings"

	"gosplice/internal/channel"
	"gosplice/internal/cvedb"
	"gosplice/internal/fleet"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
	"gosplice/internal/telemetry"
)

// rolloutClients and rolloutWorkers size each rollout: 64 machines
// across the four releases, synced two at a time.
const (
	rolloutClients = 64
	rolloutWorkers = 2
)

// rolloutWL is the fleet's workload: one canary rollout (default 1% ->
// 10% -> 100% rings, health-gated over /fleet/health) of every release's
// channel, published once during setup. No build, no journal, no disk
// blob cache — the aggregator, health gate and channel servers under
// many concurrent members.
type rolloutWL struct {
	dirs  map[string]string
	heads map[string]int
	n     int64 // rollouts run; each gets its own fleet seed
}

func newRollout(dir string) (workload, error) {
	w := &rolloutWL{dirs: map[string]string{}, heads: map[string]int{}}
	srctree.SetStore(store.MustNew(store.Options{}))
	for _, v := range cvedb.Versions {
		cdir, head, err := publish(dir, v)
		if err != nil {
			return nil, err
		}
		w.dirs[v], w.heads[v] = cdir, head
	}
	return w, nil
}

func (w *rolloutWL) step(r *runner) error {
	w.n++
	seed := r.cfg.Seed + w.n
	var res *fleet.Result
	var health channel.FleetHealth
	reqs0 := serverRequests()
	err := r.op("rollout", func(root layer) error {
		l := root.child("fleet.new")
		o, err := fleet.New(fleet.Config{Clients: rolloutClients, ChannelDirs: w.dirs, Workers: rolloutWorkers, Seed: seed})
		l.end()
		if err != nil {
			return err
		}
		l = root.child("fleet.run")
		res, err = o.Run(context.Background())
		d := l.end()
		if err == nil {
			// Rings run back to back and end just before Run returns;
			// place them there so run's self time is the fleet build-out
			// and the final health read.
			end := l.t0.Add(d)
			for i := len(res.Rings) - 1; i >= 0; i-- {
				rr := res.Rings[i]
				r.rec.record(l, fmt.Sprintf("fleet.ring%d", rr.Ring), end.Add(-rr.Duration), end)
				r.count(fmt.Sprintf("fleet.ring%d", rr.Ring), ms(rr.Duration))
				end = end.Add(-rr.Duration)
			}
			l = root.child("channel.fleet_health")
			health = o.Aggregator().Health()
			l.end()
		}
		c := root.child("fleet.close")
		o.Close()
		c.end()
		return err
	})
	if err != nil {
		return nil
	}
	r.count("channel.server_requests", float64(serverRequests()-reqs0))
	r.count("wire_bytes", float64(res.BytesOverWire))
	return w.checkRollout(res, health)
}

// checkRollout: a healthy fleet converges — no halt, every machine's
// /fleet/health row at its release's head, and every update applied
// exactly once per machine.
func (w *rolloutWL) checkRollout(res *fleet.Result, h channel.FleetHealth) error {
	if err := check(!res.Halted, "healthy rollout halted at ring %d", res.HaltedRing); err != nil {
		return err
	}
	want := uint64(0)
	for i := 0; i < rolloutClients; i++ {
		want += uint64(w.heads[cvedb.Versions[i%len(cvedb.Versions)]])
	}
	if err := check(res.Applied == want, "rollout applied %d updates, want %d", res.Applied, want); err != nil {
		return err
	}
	for _, view := range []channel.FleetHealth{res.Health, h} {
		if err := check(len(view.Clients) == rolloutClients, "health view has %d rows, want %d", len(view.Clients), rolloutClients); err != nil {
			return err
		}
		for _, row := range view.Clients {
			head := -1
			for rel, n := range w.heads {
				if strings.HasSuffix(row.Source, "-"+rel) {
					head = n
				}
			}
			if err := check(row.Position == int64(head), "%s at position %d, head %d", row.Source, row.Position, head); err != nil {
				return err
			}
		}
	}
	return nil
}

// serverRequests is the process-wide channel-server request count.
func serverRequests() uint64 {
	return telemetry.Default().Snapshot().CounterFamily("gosplice_channel_requests_total")
}

func (w *rolloutWL) report(r *runner, m map[string]float64) {
	n := r.ops("rollout")
	m["op_p50_ms"] = r.p50("rollout")
	m["rollout_p50_s"] = m["op_p50_ms"] / 1000
	if n > 0 {
		m["wire_kb_per_machine"] = r.counts["wire_bytes"] / float64(n*rolloutClients) / 1024
		m["channel.server_requests_per_machine"] = r.counts["channel.server_requests"] / float64(n*rolloutClients)
	}
	for i := 1; i <= 3; i++ {
		m[fmt.Sprintf("fleet.ring%d_ms", i)] = r.per(fmt.Sprintf("fleet.ring%d", i), n)
	}
	m["fleet.new_ms"] = r.layerMS("fleet.new", n)
	m["fleet.run_self_ms"] = r.layerMS("fleet.run", n)
	m["fleet.close_ms"] = r.layerMS("fleet.close", n)
	m["channel.fleet_health_ms"] = r.layerMS("channel.fleet_health", n)
}

func (w *rolloutWL) close() {}
