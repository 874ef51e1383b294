// Command ksplice-channel distributes hot updates the way the paper's
// conclusion proposes (section 8): a publisher builds a channel of update
// tarballs for a kernel release, a server exposes it over HTTP, and
// subscribed machines transparently receive every update they are
// missing — eliminating all their security reboots at once.
//
//	ksplice-channel -keygen publisher.key
//	ksplice-channel -publish -dir channel -version sim-2.6.20-deb
//	ksplice-channel -publish -dir channel -version sim-2.6.20-deb -sign-key publisher.key
//	ksplice-channel -serve -dir channel -addr :8940
//	ksplice-channel -subscribe -dir channel -state machine.json
//	ksplice-channel -subscribe -url http://updates.example:8940 -state machine.json -verify-key publisher.key.pub
//	ksplice-channel -scrape http://updates.example:8940/metrics
//
// A serving channel also exposes /metrics (Prometheus text) and
// /debug/vars (JSON) for live introspection; -scrape fetches a running
// server's exposition and validates it.
//
// Publishing also emits a binary delta from each tarball to the next,
// so a subscriber that holds the previous update fetches only the
// delta. With -sign-key each manifest carries an offline ed25519
// signature; a subscriber started with -verify-key refuses manifests
// that are unsigned or signed by anyone else.
//
// Every tarball is published with its sha256 digest and size in the
// manifest, and a subscriber verifies each download end to end before it
// is applied — a truncated or corrupted update is re-fetched, never
// spliced in. If the channel becomes unreachable mid-subscription the
// machine keeps running at the position it reached; re-subscribing later
// resumes from there.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"gosplice/internal/atomicfile"
	"gosplice/internal/channel"
	"gosplice/internal/crashpoint"
	"gosplice/internal/cvedb"
	_ "gosplice/internal/eval" // expose the gosplice_eval_* families on /metrics
	"gosplice/internal/simstate"
	"gosplice/internal/srctree"
	"gosplice/internal/telemetry"
)

func main() {
	publish := flag.Bool("publish", false, "publish updates into the channel")
	subscribe := flag.Bool("subscribe", false, "apply the channel's missing updates to a machine")
	serve := flag.Bool("serve", false, "serve the channel directory over HTTP")
	dir := flag.String("dir", "channel", "channel directory")
	addr := flag.String("addr", ":8940", "listen address (serve)")
	url := flag.String("url", "", "subscribe over HTTP from this channel server instead of -dir")
	version := flag.String("version", "", "kernel release (publish)")
	cveID := flag.String("cve", "", "publish only this CVE's fix (default: all of the release's)")
	statePath := flag.String("state", "machine.json", "machine state file (subscribe)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request HTTP timeout (subscribe -url)")
	retries := flag.Int("retries", 4, "HTTP retries per fetch, with exponential backoff (subscribe -url)")
	cacheDir := flag.String("cache-dir", "", "persist build artifacts in this directory (shared across processes)")
	cacheGC := flag.Int64("cache-gc-bytes", 0, "sweep the on-disk artifact cache down to this many bytes before running (0 = no sweep)")
	scrape := flag.String("scrape", "", "fetch this /metrics URL, validate the exposition, and summarise it")
	keygen := flag.String("keygen", "", "generate an ed25519 signing key pair at this path (and .pub) and exit")
	signKey := flag.String("sign-key", "", "sign published manifests with this ed25519 key file (publish)")
	verifyKey := flag.String("verify-key", "", "refuse manifests not signed by this public key file (subscribe)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/vars on this extra address (host:0 picks a port); -serve exposes them on -addr regardless")
	traceOut := flag.String("trace-out", "", "write recorded spans as a Chrome trace to this file on exit")
	fleetAgg := flag.Bool("fleet", false, "serve: also aggregate pushed fleet telemetry (/fleet/report, /fleet/health, /fleet/trace)")
	pushReport := flag.String("push-report", "", "subscribe: push this machine's telemetry snapshot and spans to this /fleet/report URL after syncing")
	checkTrace := flag.String("check-trace", "", "fetch this /fleet/trace URL and verify it is a merged cross-process trace")
	flag.Parse()

	// GOSPLICE_CRASH=label[:N] schedules a simulated process death at the
	// Nth hit of a labeled persistence crash point — the knob the
	// crash-recovery smoke test uses to kill a subscriber mid-apply. The
	// death is an uncaught panic, a kill rather than a graceful exit, so
	// whatever the state dir holds at that instant is what recovery sees.
	if plan, err := crashpoint.FromEnv(os.Getenv("GOSPLICE_CRASH")); err != nil {
		fatal(err)
	} else if plan != nil {
		crashpoint.SetGlobal(plan.Hook())
	}

	if bound, _, err := telemetry.ServeLoopback(*metricsAddr); err != nil {
		fatal(err)
	} else if bound != "" {
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", bound)
	}
	defer func() {
		if err := telemetry.WriteChromeTraceFile(*traceOut, nil); err != nil {
			fmt.Fprintln(os.Stderr, "ksplice-channel:", err)
		}
	}()

	if err := srctree.UseDiskStore(*cacheDir, *cacheGC); err != nil {
		fatal(err)
	}

	switch {
	case *keygen != "":
		doKeygen(*keygen)
	case *publish:
		doPublish(*dir, *version, *cveID, *signKey)
	case *serve:
		doServe(*dir, *addr, *fleetAgg)
	case *subscribe:
		doSubscribe(*dir, *url, *statePath, *verifyKey, *timeout, *retries, *pushReport)
	case *scrape != "":
		doScrape(*scrape, *timeout)
	case *checkTrace != "":
		doCheckTrace(*checkTrace, *timeout)
	default:
		fatal(fmt.Errorf("need -keygen, -publish, -serve, -subscribe, -scrape, or -check-trace"))
	}
}

func doKeygen(path string) {
	k, err := channel.GenerateSignKey()
	if err != nil {
		fatal(err)
	}
	if err := channel.WriteSignKey(path, k); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote signing key %s (mode 0600) and public key %s.pub\n", path, path)
	fmt.Printf("public key: %s\n", k.PublicHex())
}

func doPublish(dir, version, cveID, signKeyPath string) {
	if version == "" {
		fatal(fmt.Errorf("-publish needs -version"))
	}
	pub, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		fatal(err)
	}
	if signKeyPath != "" {
		if pub.SignKey, err = channel.LoadSignKey(signKeyPath); err != nil {
			fatal(err)
		}
	}
	var cves []*cvedb.CVE
	if cveID != "" {
		c, ok := cvedb.ByID(cveID)
		if !ok {
			fatal(fmt.Errorf("unknown CVE %q", cveID))
		}
		cves = append(cves, c)
	} else {
		cves = cvedb.ForVersion(version)
	}
	for _, c := range cves {
		u, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch())
		if err != nil {
			fatal(fmt.Errorf("publishing %s: %w", c.ID, err))
		}
		extra := ""
		if u.HasHooks() {
			extra = " (carries custom code)"
		}
		fmt.Printf("published %s: %d-line patch, replaces %v%s\n",
			u.Name, u.PatchLines, u.PatchedFuncs(), extra)
	}
}

func doServe(dir, addr string, fleetAgg bool) {
	m, err := channel.ReadManifest(dir)
	if err != nil {
		fatal(fmt.Errorf("cannot serve %s: %w", dir, err))
	}
	// Listen before announcing, so :0 prints the port actually bound and
	// a supervisor (or the make-check smoke test) can scrape immediately.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	srv := channel.NewServer(dir)
	if fleetAgg {
		srv.Fleet = channel.NewFleetAggregator()
		srv.Fleet.LocalProc = "channel-server"
		fmt.Printf("fleet aggregation on http://%s/fleet/health\n", ln.Addr())
	}
	fmt.Printf("serving %s (%s, %d updates) on %s\n", dir, m.KernelVersion, len(m.Updates), ln.Addr())
	fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	if err := http.Serve(ln, srv); err != nil {
		fatal(err)
	}
}

// doCheckTrace fetches a merged Chrome trace (a /fleet/trace URL, or a
// file written by -trace-out on a fleet run) and verifies it really is
// cross-process: at least one trace id spanning two processes with a
// parent/child link across them. This is the make-check smoke's proof
// that client and server spans joined one distributed trace.
func doCheckTrace(url string, timeout time.Duration) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("check-trace %s: server returned %s", url, resp.Status))
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	chk, err := telemetry.CheckMergedTrace(b)
	if err != nil {
		fatal(fmt.Errorf("check-trace %s: %w", url, err))
	}
	fmt.Printf("checked %s: %d spans across processes %s; %d cross-process trace(s) with parent/child links\n",
		url, chk.Spans, strings.Join(chk.Procs, ", "), len(chk.CrossTraces))
}

// doScrape fetches a serving channel's /metrics, validates the
// exposition, and summarises the families it carries — the operator-side
// check that a fleet's update server is observable.
func doScrape(url string, timeout time.Duration) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("scrape %s: server returned %s", url, resp.Status))
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if err := telemetry.ValidateExposition(b); err != nil {
		fatal(fmt.Errorf("scrape %s: invalid exposition: %w", url, err))
	}
	families := map[string]int{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		name = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		families[name]++
	}
	var missing []string
	for _, want := range []string{"gosplice_store_", "gosplice_channel_", "gosplice_eval_"} {
		found := false
		for name := range families {
			if strings.HasPrefix(name, want) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, want+"*")
		}
	}
	if len(missing) > 0 {
		fatal(fmt.Errorf("scrape %s: exposition lacks %s", url, strings.Join(missing, ", ")))
	}
	fmt.Printf("scraped %s: valid exposition, %d families (store, channel, and eval all present)\n", url, len(families))
}

func doSubscribe(dir, url, statePath, verifyKeyPath string, timeout time.Duration, retries int, pushReport string) {
	// Ctrl-C cancels the subscribe cleanly: the client exits mid-backoff
	// in milliseconds, the machine keeps the position it reached, and the
	// state file records exactly the updates that are live.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The transport exists before the state file is read: a corrupt state
	// file re-derives the machine from the channel's own kernel release.
	var tr channel.Transport
	if url != "" {
		tr = channel.NewHTTPTransport(url, channel.HTTPOptions{Timeout: timeout, MaxRetries: retries})
	} else {
		tr = channel.NewDirTransport(dir)
	}
	st, err := loadMachineState(ctx, tr, statePath)
	if err != nil {
		fatal(err)
	}

	stateDir := filepath.Dir(statePath)
	cfg := channel.ClientConfig{
		Name:      "ksplice-channel",
		Transport: tr,
		StateDir:  stateDir,
	}
	if verifyKeyPath != "" {
		if cfg.VerifyKey, err = channel.LoadVerifyKey(verifyKeyPath); err != nil {
			fatal(err)
		}
	}
	// record persists the state file after EVERY applied update, not once
	// at the end of the run: a subscriber killed mid-sync restarts knowing
	// exactly which updates its kernel carries, and the next run resumes
	// from that position instead of position zero.
	record := func(e channel.Entry, rel string) error {
		st.Updates = append(st.Updates, rel)
		if err := st.Save(statePath); err != nil {
			return err
		}
		fmt.Printf("applied %s (%s)\n", e.Name, e.CVE)
		return nil
	}
	if url != "" {
		// Remote channel: persist a verified local copy of every applied
		// tarball next to the state file, so a later replay of this
		// machine needs no network.
		local := filepath.Join(stateDir, "channel-cache")
		if err := os.MkdirAll(local, 0o755); err != nil {
			fatal(err)
		}
		atomicfile.SweepTemps(local, 0)
		cfg.OnApplied = func(e channel.Entry, b []byte) error {
			path := filepath.Join(local, filepath.Base(e.File))
			if err := atomicfile.Write(path, b, 0o644, nil, cpCacheWrite); err != nil {
				return err
			}
			rel, err := filepath.Rel(stateDir, path)
			if err != nil {
				rel = path
			}
			return record(e, rel)
		}
	} else {
		cfg.OnApplied = func(e channel.Entry, _ []byte) error {
			rel, err := filepath.Rel(stateDir, filepath.Join(dir, e.File))
			if err != nil {
				rel = filepath.Join(dir, e.File)
			}
			return record(e, rel)
		}
	}
	cl, err := channel.NewClient(cfg)
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	// Opening the client replayed the apply journal; surface anything it
	// had to clean up so the operator sees a crash was survived.
	if rec := cl.Recovery(); rec.Corrupt {
		fmt.Fprintf(os.Stderr, "ksplice-channel: warning: apply journal was corrupt; re-deriving position from the machine\n")
	} else if rec.TornRecords > 0 || rec.Pending != nil {
		fmt.Fprintf(os.Stderr, "ksplice-channel: recovered apply journal at position %d (torn records dropped: %d, unresolved apply: %v)\n",
			rec.Position, rec.TornRecords, rec.Pending != nil)
	}

	// Check the manifest against the pinned key BEFORE replaying the
	// machine: a manifest from the wrong publisher is refused outright,
	// exactly as Sync would refuse it. An unreachable channel is not
	// fatal here — the sync below degrades to the position reached.
	if _, _, err := cl.InstallBase(ctx); err != nil && strings.Contains(err.Error(), "refusing manifest") {
		fatal(err)
	}
	_, mgr, err := st.Replay()
	if err != nil {
		fatal(err)
	}

	before := len(st.Updates)
	cl.Bind(mgr, before)
	applied, subErr := cl.Sync(ctx)
	if pushReport != "" {
		// Report after the sync so the snapshot carries its outcome and
		// the pushed span batch carries the sync's distributed trace. A
		// failed push never fails the subscribe — the updates are live.
		if err := cl.Pusher(pushReport).Push(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "ksplice-channel: warning: telemetry push: %v\n", err)
		} else {
			fmt.Printf("pushed telemetry report to %s\n", pushReport)
		}
	}
	// Whatever happened, the machine's true position is what we record:
	// every applied update is already live in the kernel.
	if len(applied) > 0 || subErr == nil {
		if err := st.Save(statePath); err != nil {
			fatal(err)
		}
	}
	if subErr != nil {
		if pe, ok := channel.IsPosition(subErr); ok {
			fmt.Printf("machine stopped at channel position %d (%d update(s) applied this run); it keeps running and can re-subscribe later\n",
				pe.Position, len(applied))
		}
		fatal(subErr)
	}
	if len(applied) == 0 {
		fmt.Println("machine is up to date")
		return
	}
	fmt.Printf("machine now carries %d hot updates; zero reboots\n", len(st.Updates))
}

// loadMachineState reads the machine's state file. A missing file stays
// fatal — the machine must be booted (simboot) before it can subscribe —
// but a corrupt or truncated one degrades: warn, re-derive a fresh
// machine for the channel's own kernel release, and let the sync
// re-apply everything from position zero.
func loadMachineState(ctx context.Context, tr channel.Transport, statePath string) (*simstate.State, error) {
	st, err := simstate.Load(statePath)
	if err == nil {
		return st, nil
	}
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w (boot the machine first: go run ./cmd/simboot -state %s)", err, statePath)
	}
	m, merr := tr.Manifest(ctx)
	if merr != nil {
		return nil, fmt.Errorf("%v (and cannot re-derive it from the channel: %v)", err, merr)
	}
	st, rerr := simstate.LoadOrRederive(statePath, m.KernelVersion)
	var ce *simstate.CorruptError
	if errors.As(rerr, &ce) {
		fmt.Fprintf(os.Stderr, "ksplice-channel: warning: %v; re-deriving the machine as a fresh %s boot\n", ce, m.KernelVersion)
	} else if rerr != nil {
		return nil, rerr
	}
	return st, nil
}

// cpCacheWrite marks the channel-cache write: a subscriber killed
// mid-write never leaves a torn tarball in its channel cache.
var cpCacheWrite = atomicfile.Point("cli.cache.write")

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ksplice-channel:", err)
	os.Exit(1)
}
