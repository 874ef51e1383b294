// Update channels: the paper's closing proposal (section 8) — publish
// hot update packages for a kernel release once, and every subscribed
// machine transparently receives the updates it is missing. One
// subscription call eliminates all of the release's security reboots.
//
// This example runs the full networked path: the channel is served over
// loopback HTTP with an injected fault (a truncated download), and the
// subscriber's integrity checks plus the transport's retry/resume logic
// recover transparently — the corrupted bytes never reach the kernel.
//
//	go run ./examples/update-channel
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/faultinject"
	"gosplice/internal/kernel"
)

func main() {
	version := cvedb.Versions[1]
	dir, err := os.MkdirTemp("", "ksplice-channel-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The distributor publishes every fix for the release. Each update is
	// built against the accumulated previously-patched source, so they
	// stack cleanly in order; each tarball's sha256 digest and size land
	// in the manifest.
	pub, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		log.Fatal(err)
	}
	cves := cvedb.ForVersion(version)
	for _, c := range cves {
		u, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch())
		if err != nil {
			log.Fatal(err)
		}
		note := ""
		if u.HasHooks() {
			note = "  [custom code]"
		}
		fmt.Printf("published %-24s (%2d-line patch)%s\n", u.Name, u.PatchLines, note)
	}

	// Serve the channel over HTTP — through a fault injector that cuts
	// the third response short, the way a flaky network would.
	plan := faultinject.New(faultinject.Fault{Op: 3, Kind: faultinject.Truncate, Offset: 100})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: faultinject.Handler(channel.NewServer(dir), plan)}
	go srv.Serve(ln)
	defer srv.Close()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("\nchannel served at %s (with one injected truncation fault)\n", baseURL)

	// A long-running production machine subscribes over the network.
	k, err := kernel.Boot(kernel.Config{Tree: cvedb.Tree(version)})
	if err != nil {
		log.Fatal(err)
	}
	mgr := core.NewManager(k)
	fmt.Printf("machine booted: %s, uptime %d instructions\n", k.Version, k.TotalSteps())

	t := channel.NewHTTPTransport(baseURL, channel.HTTPOptions{
		Timeout: 5 * time.Second, MaxRetries: 4, Backoff: 10 * time.Millisecond,
	})
	applied, err := channel.Subscribe(context.Background(), t, mgr, 0, channel.SubscribeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	calls := k.Metrics().Counter("gosplice_kernel_stop_machine_total").Value()
	pauses := k.Metrics().Histogram("gosplice_kernel_stop_machine_pause_seconds", nil)
	var mean float64
	if n := pauses.Count(); n > 0 {
		mean = pauses.Sum() / float64(n) * 1e9
	}
	st := plan.Stats()
	fmt.Printf("subscribed: %d hot updates applied, %d stop_machine captures, mean pause %.0fns\n",
		len(applied), calls, mean)
	fmt.Printf("faults survived: %d injected (every tarball digest-verified before apply)\n", st.Total())
	fmt.Printf("uptime now %d instructions — the machine never stopped being itself\n", k.TotalSteps())

	// Prove the whole batch: every probe reports fixed behaviour and the
	// stress workload stays clean.
	flipped := 0
	for _, c := range cves {
		var addr uint32
		for _, s := range k.Syms.Lookup(c.Probe.Entry) {
			if s.Func && s.Module == "" {
				addr = s.Addr
			}
		}
		task, err := k.SpawnAt("probe", addr, c.Probe.UID, c.Probe.Args...)
		if err != nil {
			log.Fatal(err)
		}
		if err := k.RunUntilExit(task, 50_000_000); err != nil {
			log.Fatal(err)
		}
		if task.ExitCode == c.Probe.FixedResult {
			flipped++
		}
		k.ReapExited()
	}
	fmt.Printf("probes reporting fixed behaviour: %d of %d\n", flipped, len(cves))
	if bad, err := k.Call("stress_main", 200); err != nil || bad != 0 {
		log.Fatalf("stress: %d, %v", bad, err)
	}
	fmt.Println("stress workload: clean; zero reboots")
}
