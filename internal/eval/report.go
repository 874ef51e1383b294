package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gosplice/internal/codegen"
	"gosplice/internal/cvedb"
)

// Headline renders the paper's central result (abstract, section 6.3):
// how many patches apply with no new code, and the average new code for
// the rest.
func (r *Result) Headline() string {
	var sb strings.Builder
	total := len(r.Patches)
	noCode, withCode, okAll := 0, 0, 0
	var newLines int
	for _, p := range r.Patches {
		if p.OK() {
			okAll++
		}
		if p.NeedsNewCode {
			withCode++
			newLines += p.NewCodeLines
		} else {
			noCode++
		}
	}
	fmt.Fprintf(&sb, "Evaluation: %d significant kernel vulnerabilities\n", total)
	fmt.Fprintf(&sb, "  hot updates applied successfully ......... %d of %d\n", okAll, total)
	fmt.Fprintf(&sb, "  patches needing no new code ............... %d of %d (%.0f%%)\n",
		noCode, total, 100*float64(noCode)/float64(total))
	if withCode > 0 {
		fmt.Fprintf(&sb, "  patches needing custom code ............... %d (avg %.1f lines each)\n",
			withCode, float64(newLines)/float64(withCode))
	}
	exploited, blocked := 0, 0
	for _, p := range r.Patches {
		if p.ExploitTested {
			exploited++
			if p.ExploitVulnOK && p.ExploitFixedOK {
				blocked++
			}
		}
	}
	fmt.Fprintf(&sb, "  exploits verified working then blocked .... %d of %d\n", blocked, exploited)
	return sb.String()
}

// Figure3 renders the patch-length histogram as ASCII (the paper's
// Figure 3: number of patches by lines of code in the patch).
func (r *Result) Figure3() string {
	buckets := make([]int, 17)
	for _, p := range r.Patches {
		idx := (p.PatchLoC - 1) / 5
		if p.PatchLoC > 80 || idx > 16 {
			idx = 16
		}
		buckets[idx]++
	}
	var sb strings.Builder
	sb.WriteString("Figure 3: Number of patches by patch length\n")
	sb.WriteString("  lines   patches\n")
	for i, n := range buckets {
		label := fmt.Sprintf("%2d-%2d", i*5, (i+1)*5)
		if i == 16 {
			label = "  >80"
		}
		fmt.Fprintf(&sb, "  %s  %3d %s\n", label, n, strings.Repeat("#", n))
	}
	return sb.String()
}

// Table1 renders the patches that cannot be applied without new code, in
// the paper's format.
func (r *Result) Table1() string {
	type row struct {
		id, reason string
		lines      int
	}
	var rows []row
	for _, p := range r.Patches {
		if p.NeedsNewCode {
			rows = append(rows, row{p.ID, p.Table1Reason, p.NewCodeLines})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id > rows[j].id })
	var sb strings.Builder
	sb.WriteString("Table 1: Patches that cannot be applied without new code\n")
	sb.WriteString("  CVE ID           Reason for failure     New code\n")
	for _, rw := range rows {
		fmt.Fprintf(&sb, "  %-16s %-22s %2d lines\n", strings.TrimPrefix(rw.id, "CVE-"), rw.reason, rw.lines)
	}
	return sb.String()
}

// InliningTable renders the function-inlining census of section 6.3: how
// many patches modify a function inlined somewhere in the run code, and
// how many of those functions are explicitly declared inline.
func (r *Result) InliningTable() string {
	inlined, explicit := 0, 0
	for _, p := range r.Patches {
		if p.InlineVictim {
			inlined++
		}
		if p.ExplicitInline {
			explicit++
		}
	}
	var sb strings.Builder
	sb.WriteString("Inlining census (section 6.3)\n")
	fmt.Fprintf(&sb, "  patches modifying a function inlined in the run code ... %d of %d\n", inlined, len(r.Patches))
	fmt.Fprintf(&sb, "  patches modifying a function declared `inline` .......... %d of %d\n", explicit, len(r.Patches))
	return sb.String()
}

// SymbolsTable renders the ambiguous-symbol census of section 6.3
// (Linux 2.6.27 had 7.9%% of symbols ambiguous, in 21.1%% of units).
func (r *Result) SymbolsTable() string {
	a := r.Ambiguity
	ambigPatches := 0
	for _, p := range r.Patches {
		if p.AmbiguousSym {
			ambigPatches++
		}
	}
	var sb strings.Builder
	sb.WriteString("Ambiguous symbol census (section 6.3)\n")
	fmt.Fprintf(&sb, "  symbols sharing a name with another symbol .... %d of %d (%.1f%%)\n",
		a.AmbiguousSymbols, a.TotalSymbols, 100*float64(a.AmbiguousSymbols)/float64(a.TotalSymbols))
	fmt.Fprintf(&sb, "  compilation units containing one .............. %d of %d (%.1f%%)\n",
		a.UnitsWithAmbig, a.TotalUnits, 100*float64(a.UnitsWithAmbig)/float64(a.TotalUnits))
	fmt.Fprintf(&sb, "  patches modifying a function containing one ... %d of %d\n", ambigPatches, len(r.Patches))
	return sb.String()
}

// PauseTable summarizes the stop_machine interruption windows (the
// paper's ~0.7 ms, section 5.2).
func (r *Result) PauseTable() string {
	var sb strings.Builder
	sb.WriteString("stop_machine interruption (section 5.2)\n")
	var n int
	var lo, hi, sum time.Duration
	for _, p := range r.Patches {
		if !p.Applied {
			continue
		}
		if n == 0 {
			lo = p.Pause
		}
		lo, hi = min(lo, p.Pause), max(hi, p.Pause)
		sum += p.Pause
		n++
	}
	if n == 0 {
		sb.WriteString("  no updates applied\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "  updates applied .... %d\n", n)
	fmt.Fprintf(&sb, "  pause min/avg/max .. %v / %v / %v\n", lo, sum/time.Duration(n), hi)
	return sb.String()
}

// TimingsTable summarizes where the evaluation's wall-clock time went,
// stage by stage. Unlike the paper tables these are measurements of this
// run and vary with the machine and worker count.
func (r *Result) TimingsTable() string {
	t := r.Timings
	var sb strings.Builder
	sb.WriteString("Pipeline stage timings (wall clock, summed over patches)\n")
	rows := []struct {
		name string
		d    time.Duration
	}{
		{"kernel build (cache misses)", t.Build},
		{"kernel boot", t.Boot},
		{"ksplice-create", t.Create},
		{"run-pre matching", t.RunPre},
		{"apply (load+splice)", t.Apply},
		{"stress workload", t.Stress},
		{"undo", t.Undo},
	}
	for _, rw := range rows {
		fmt.Fprintf(&sb, "  %-28s %12v\n", rw.name, rw.d.Round(time.Microsecond))
	}
	fmt.Fprintf(&sb, "  %-28s %12v\n", "total", t.Total().Round(time.Microsecond))
	return sb.String()
}

// CacheTable summarizes the incremental-build machinery's effectiveness
// during this run: how many unit compiles were served from the artifact
// store (split by memory and disk tier — misses are real recompiles),
// how often whole builds and links were memoized, and the store's own
// eviction/persistence activity. Like the timings, these are
// measurements of this run (warm caches in the same process raise the
// rates) and are excluded from the deterministic tables.
func (r *Result) CacheTable() string {
	c := r.Cache
	var sb strings.Builder
	sb.WriteString("Incremental create cache (per-run counter deltas)\n")
	row := func(name string, mem, disk, misses uint64) {
		total := mem + disk + misses
		if total == 0 {
			fmt.Fprintf(&sb, "  %-28s %8s\n", name, "unused")
			return
		}
		fmt.Fprintf(&sb, "  %-28s %8d of %-8d (%.1f%% hit: %d mem + %d disk, %d recomputed)\n",
			name, mem+disk, total, 100*float64(mem+disk)/float64(total), mem, disk, misses)
	}
	row("unit compile cache", c.UnitHits, c.UnitDiskHits, c.UnitMisses)
	row("tree build memo", c.BuildHits, 0, c.BuildMisses)
	row("kernel link cache", c.LinkHits, c.LinkDiskHits, c.LinkMisses)
	fmt.Fprintf(&sb, "  %-28s %8d evictions, %d disk writes (%s), %d disk errors\n",
		"artifact store", c.Store.Evictions, c.Store.DiskWrites,
		byteCount(c.Store.DiskWriteBytes), c.Store.DiskErrors)
	fmt.Fprintf(&sb, "  %-28s %8d entries, %s resident\n",
		"store memory tier", c.Store.MemEntries, byteCount(c.Store.MemBytes))
	return sb.String()
}

// byteCount renders a byte quantity with a binary unit.
func byteCount(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// Report renders every table and figure.
func (r *Result) Report() string {
	return strings.Join([]string{
		r.Headline(), r.Figure3(), r.Table1(),
		r.InliningTable(), r.SymbolsTable(), r.PauseTable(), r.TimingsTable(),
		r.CacheTable(),
	}, "\n")
}

// VerifyInliningCensus independently verifies the corpus's inline-victim
// flags by asking the compiler which functions its inliner folds into
// callers. It returns the IDs whose flag disagrees with the compiler.
func VerifyInliningCensus() ([]string, error) {
	var bad []string
	for _, c := range cvedb.All() {
		tree := cvedb.Tree(c.Version)
		// Find the functions the plain patch modifies, per changed unit.
		inlinedSomewhere := false
		for path := range c.Files {
			if !strings.HasSuffix(path, ".mc") {
				continue
			}
			fixedContent, changed := c.Fixed[path]
			if !changed {
				continue
			}
			u, err := tree.ParseUnit(path)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.ID, err)
			}
			census := codegen.InlinedCalls(u)
			// Which top-level functions differ textually?
			for name, callers := range census {
				if len(callers) == 0 {
					continue
				}
				if src, _ := tree.File(path); functionSourceChanged(src, fixedContent, name) {
					inlinedSomewhere = true
				}
			}
		}
		if inlinedSomewhere != c.InlineVictim {
			bad = append(bad, c.ID)
		}
	}
	return bad, nil
}

// functionSourceChanged crudely detects whether the single line defining
// an inlinable helper changed between two versions of a file. Inlinable
// MiniC helpers are single-line by construction.
func functionSourceChanged(vuln, fixed, fn string) bool {
	pick := func(src string) string {
		for _, line := range strings.Split(src, "\n") {
			if strings.Contains(line, " "+fn+"(") && strings.Contains(line, "return") {
				return line
			}
		}
		return ""
	}
	a, b := pick(vuln), pick(fixed)
	return a != "" && b != "" && a != b
}
