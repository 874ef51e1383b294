// Command ksplice-undo reverses the most recently applied hot update on a
// simulated machine: the original function entries are restored and the
// update leaves the machine's state file.
//
//	ksplice-undo -state machine.json
package main

import (
	"flag"
	"fmt"

	"gosplice/internal/cli"
	"gosplice/internal/core"
	"gosplice/internal/simstate"
)

func main() {
	rt := cli.New("ksplice-undo")
	statePath := flag.String("state", "machine.json", "machine state file")
	flag.Parse()
	rt.Start()

	st, err := simstate.Load(*statePath)
	if err != nil {
		rt.Fatal(err)
	}
	if len(st.Updates) == 0 {
		rt.Fatal(fmt.Errorf("no updates applied to this machine"))
	}
	_, mgr, err := st.Replay()
	if err != nil {
		rt.Fatal(err)
	}
	applied := mgr.Applied()
	last := applied[len(applied)-1]
	if err := mgr.Undo(core.ApplyOptions{}); err != nil {
		rt.Fatal(err)
	}
	fmt.Printf("reversed %s: %d function(s) restored\n",
		last.Update.Name, len(last.Trampolines))

	st.Updates = st.Updates[:len(st.Updates)-1]
	if err := st.Save(*statePath); err != nil {
		rt.Fatal(err)
	}
	rt.Exit(0)
}
