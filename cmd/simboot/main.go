// Command simboot boots a simulated kernel from one of the corpus
// releases and writes a machine state file that the ksplice-* tools
// operate on.
//
//	simboot -version sim-2.6.16-deb -state machine.json
//	simboot -list
//	simboot -version sim-2.6.16-deb -state machine.json -probe c2006_2451_probe
package main

import (
	"flag"
	"fmt"

	"gosplice/internal/cli"
	"gosplice/internal/cvedb"
	"gosplice/internal/simstate"
)

func main() {
	rt := cli.New("simboot")
	rt.StoreFlags()
	version := flag.String("version", cvedb.Versions[1], "kernel release to boot")
	statePath := flag.String("state", "machine.json", "machine state file to write")
	list := flag.Bool("list", false, "list available kernel releases and exit")
	probe := flag.String("probe", "", "after boot, run this kernel function and print its result")
	uid := flag.Int("uid", 0, "credential for -probe")
	flag.Parse()
	rt.Start()

	if *list {
		for _, v := range cvedb.Versions {
			fmt.Println(v)
		}
		rt.Exit(0)
	}

	st, err := simstate.New(*version)
	if err != nil {
		rt.Fatal(err)
	}
	k, _, err := st.Replay()
	if err != nil {
		rt.Fatal(err)
	}
	fmt.Printf("booted %s: image %#x..%#x, %d units\n",
		k.Version, k.Image.Base, k.Image.End(), len(k.Build.Objects))
	amb := k.Syms.Ambiguity()
	fmt.Printf("kallsyms: %d symbols, %d ambiguous (%.1f%%), %d/%d units with ambiguity\n",
		amb.TotalSymbols, amb.AmbiguousSymbols,
		100*float64(amb.AmbiguousSymbols)/float64(amb.TotalSymbols),
		amb.UnitsWithAmbig, amb.TotalUnits)
	fmt.Printf("console: %q\n", k.Console())

	if *probe != "" {
		t, err := k.CallAsUser(*uid, *probe)
		if err != nil {
			rt.Fatal(err)
		}
		fmt.Printf("%s() = %d (task uid %d)\n", *probe, t.ExitCode, t.UID)
	}

	if err := st.Save(*statePath); err != nil {
		rt.Fatal(err)
	}
	fmt.Printf("machine state written to %s\n", *statePath)
	rt.Exit(0)
}
