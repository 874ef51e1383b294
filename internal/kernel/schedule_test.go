package kernel_test

import (
	"fmt"
	"strings"
	"testing"

	"gosplice/internal/cvedb"
	"gosplice/internal/diffutil"
	"gosplice/internal/kernel"
)

// spinYield is a kyield loop added to a release's stress unit: a task
// that gives up its quantum on every turn.
const spinYield = `
int spin_yield(int n) {
	int acc = 0;
	int i;
	for (i = 0; i < n; i++) {
		acc += i;
		kyield();
	}
	return acc;
}
`

// scheduleGolden pins the synchronous scheduler's exact order. Three
// tasks — stress_main, a kyield loop and a CVE probe — run under one
// RunSteps call of each total (the last runs all three to their exit),
// on a fresh clone of the same booted kernel. Each line records what
// RunSteps returned, the kernel's TotalSteps, then per task its
// Thread.Steps, IP, state and exit code, and last the console bytes
// written since the clone. The values were
// recorded from the per-instruction scheduler; a quantum executor must
// reproduce them, because reproducible schedules (quiescence retries,
// live-load apply offsets) depend on this order.
var scheduleGolden = map[int]string{
	1:       `ran 1 total 1 | stress_main steps=1 ip=0x108e02 run | spin_yield steps=0 ip=0x1090e0 run | probe steps=0 ip=0x101820 run | console ""`,
	63:      `ran 63 total 63 | stress_main steps=63 ip=0x108f04 run | spin_yield steps=0 ip=0x1090e0 run | probe steps=0 ip=0x101820 run | console ""`,
	64:      `ran 64 total 64 | stress_main steps=64 ip=0x108f06 run | spin_yield steps=0 ip=0x1090e0 run | probe steps=0 ip=0x101820 run | console ""`,
	65:      `ran 65 total 65 | stress_main steps=64 ip=0x108f06 run | spin_yield steps=1 ip=0x1090e2 run | probe steps=0 ip=0x101820 run | console ""`,
	257:     `ran 257 total 257 | stress_main steps=143 ip=0x108f24 run | spin_yield steps=68 ip=0x104a3d run | probe steps=46 ip=0x2003 exit 97001 | console "dst_ca: slot query\n"`,
	4096:    `ran 4096 total 4096 | stress_main steps=2622 ip=0x108e65 run | spin_yield steps=1428 ip=0x104a3d run | probe steps=46 ip=0x2003 exit 97001 | console "dst_ca: slot query\n"`,
	200_000: `ran 32880 total 32880 | stress_main steps=26007 ip=0x2003 exit 0 | spin_yield steps=6827 ip=0x2003 exit 19900 | probe steps=46 ip=0x2003 exit 97001 | console "dst_ca: slot query\n"`,
}

// TestScheduleGolden: see scheduleGolden.
func TestScheduleGolden(t *testing.T) {
	v := cvedb.Versions[0]
	tree := cvedb.Tree(v)
	src, _ := tree.File("user/stress.mc")
	tree, err := tree.Patch(diffutil.DiffFiles("user/stress.mc", src, src+spinYield))
	if err != nil {
		t.Fatal(err)
	}
	base, err := kernel.Boot(tree)
	if err != nil {
		t.Fatal(err)
	}
	probe := cvedb.ForVersion(v)[0].Probe
	for _, total := range []int{1, 63, 64, 65, 257, 4096, 200_000} {
		k, err := base.Clone()
		if err != nil {
			t.Fatal(err)
		}
		console0 := len(k.Console())
		steps0 := k.TotalSteps()
		var tasks []*kernel.Task
		for _, s := range []struct {
			name, entry string
			uid         int
			args        []int64
		}{
			{"stress_main", "stress_main", 0, []int64{20}},
			{"spin_yield", "spin_yield", 0, []int64{200}},
			{"probe", probe.Entry, probe.UID, probe.Args},
		} {
			task, err := k.Spawn(s.name, s.entry, s.uid, s.args...)
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, task)
		}
		ran := k.RunSteps(total)
		var b strings.Builder
		fmt.Fprintf(&b, "ran %d total %d", ran, k.TotalSteps()-steps0)
		for _, task := range tasks {
			state := "run"
			switch {
			case task.Fault != nil:
				state = "fault " + task.Fault.Error()
			case task.Exited:
				state = fmt.Sprintf("exit %d", task.ExitCode)
			}
			fmt.Fprintf(&b, " | %s steps=%d ip=%#x %s", task.Name, task.Th.Steps, task.Th.IP, state)
		}
		fmt.Fprintf(&b, " | console %q", k.Console()[console0:])
		if got, want := b.String(), scheduleGolden[total]; got != want {
			t.Errorf("RunSteps(%d):\n got %s\nwant %s", total, got, want)
		}
	}
}
