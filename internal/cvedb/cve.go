package cvedb

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"

	"gosplice/internal/diffutil"
	"gosplice/internal/srctree"
)

// Class is a vulnerability consequence class.
type Class int

const (
	// PrivEsc: privilege escalation (about two-thirds of the corpus).
	PrivEsc Class = iota
	// InfoLeak: information disclosure (about one-third).
	InfoLeak
)

func (c Class) String() string {
	if c == PrivEsc {
		return "privilege escalation"
	}
	return "information disclosure"
}

// Probe describes the behavioural check for one vulnerability: calling
// Entry with Args returns VulnResult on an unpatched kernel and
// FixedResult after the fix is live.
type Probe struct {
	Entry       string
	Args        []int64
	VulnResult  int64
	FixedResult int64
	// UID runs the probe task with this credential (default 0).
	UID int
}

// Exploit describes a user-space exploit program (present for the four
// vulnerabilities the paper verified with public exploit code).
type Exploit struct {
	// Entry is the user program's entry function (reached via syscalls).
	Entry string
	// UID is the unprivileged credential the exploit starts with.
	UID int
	// WantVuln is the exploit's exit value on a vulnerable kernel.
	WantVuln int64
	// WantFixed is its exit value once the update is applied.
	WantFixed int64
	// EscalatesTo, if non-negative, is the UID the task holds after a
	// successful exploit (checked pre-update, and checked NOT to happen
	// post-update).
	EscalatesTo int
}

// CVE is one corpus entry.
type CVE struct {
	// ID is the CVE identifier (real identifiers where the paper names
	// them; era-plausible synthetic ones otherwise).
	ID string
	// Desc is a one-line description.
	Desc string
	// Class is the consequence class.
	Class Class
	// Version is the kernel release the vulnerability is evaluated on.
	Version string

	// Files holds the vulnerable source files this CVE contributes to the
	// base tree; Fixed holds their fixed contents — for the Table 1
	// patches this includes the programmer's custom ksplice hooks. The
	// hot-update patch is the diff between Files and Fixed.
	Files map[string]string
	Fixed map[string]string
	// FixedPlain, when non-nil, is the fix as originally published —
	// without the hot-update custom code. Figure 3 measures this patch;
	// nil means the plain and hot patches coincide.
	FixedPlain map[string]string
	// InitFn names an initialization function kinit must call at boot.
	InitFn string

	// Probe verifies the behaviour flip.
	Probe Probe
	// Exploit is non-nil for the exploit-verified four.
	Exploit *Exploit

	// DataSemantics marks the Table 1 patches: the fix changes the
	// semantics of persistent data structures, so applying it as a hot
	// update needs programmer-written custom code (shipped inside the
	// patch as ksplice_* hooks).
	DataSemantics bool
	// Table1Reason is "changes data init" or "adds field to struct".
	Table1Reason string
	// CustomCode is the new code the programmer wrote (hook bodies); its
	// logical-line count is NewCodeLines().
	CustomCode string

	// InlineVictim: the patch modifies a function that is inlined
	// somewhere in the running kernel.
	InlineVictim bool
	// ExplicitInline: the modified function is declared `inline`.
	ExplicitInline bool
	// AmbiguousSym: the patch modifies a function that references a
	// symbol whose name appears more than once in the kernel.
	AmbiguousSym bool

	// TargetLoC is the calibrated patch length (changed lines).
	TargetLoC int

	// patches memoizes Patch, PlainPatch and PatchLoC: entries are
	// shared and immutable, so each is computed once per entry.
	patches patchMemo
}

type patchMemo struct {
	hotOnce, plainOnce, locOnce sync.Once
	hot, plain                  string
	loc                         int
}

// NewCodeLines counts the logical (semicolon-terminated) lines of the
// custom code, the metric of Table 1.
func (c *CVE) NewCodeLines() int {
	return strings.Count(c.CustomCode, ";")
}

// Patch renders the fix as a unified diff against the vulnerable tree.
func (c *CVE) Patch() string {
	c.patches.hotOnce.Do(func() { c.patches.hot = diffAgainst(c.Files, c.Fixed) })
	return c.patches.hot
}

// PlainPatch renders the fix as originally published (no hot-update
// custom code) — the patch Figure 3 measures.
func (c *CVE) PlainPatch() string {
	c.patches.plainOnce.Do(func() {
		if c.FixedPlain == nil {
			c.patches.plain = c.Patch()
		} else {
			c.patches.plain = diffAgainst(c.Files, c.FixedPlain)
		}
	})
	return c.patches.plain
}

// PatchLoC is the changed-line count of the plain patch (the Figure 3
// metric).
func (c *CVE) PatchLoC() int {
	c.patches.locOnce.Do(func() {
		p, err := diffutil.ParsePatch(c.PlainPatch())
		if err != nil {
			panic(fmt.Sprintf("cvedb: %s: %v", c.ID, err))
		}
		c.patches.loc = p.ChangedLines()
	})
	return c.patches.loc
}

// diffAgainst renders fixed, laid over files, as a unified diff against
// files.
func diffAgainst(files, fixed map[string]string) string {
	merged := make(map[string]string, len(files)+len(fixed))
	maps.Copy(merged, files)
	maps.Copy(merged, fixed)
	return diffutil.DiffTrees(files, merged)
}

// Versions lists the kernel releases the corpus is evaluated on. Like the
// paper's mix of Debian and kernel.org releases, several bases are used;
// each CVE names the one it is tested against.
var Versions = []string{
	"sim-2.6.9-deb",
	"sim-2.6.16-deb",
	"sim-2.6.20-deb",
	"sim-2.6.24-vanilla",
}

// The corpus is deterministic and, once assembled, immutable; it is built
// once per process. Entries are shared pointers — callers must not mutate
// them. rawCorpus preserves buildCorpus's spec order (which fixes the
// kinit call sequence in generated trees); corpus is the ID-sorted view.
var (
	corpusOnce sync.Once
	rawVal     []*CVE
	corpusVal  []*CVE
)

func assembleCorpus() {
	rawVal = buildCorpus()
	corpusVal = append([]*CVE(nil), rawVal...)
	sort.Slice(corpusVal, func(i, j int) bool { return corpusVal[i].ID < corpusVal[j].ID })
	if len(corpusVal) != 64 {
		panic(fmt.Sprintf("cvedb: corpus has %d entries, want 64", len(corpusVal)))
	}
}

func rawCorpus() []*CVE {
	corpusOnce.Do(assembleCorpus)
	return rawVal
}

func corpus() []*CVE {
	corpusOnce.Do(assembleCorpus)
	return corpusVal
}

// All returns the 64-entry corpus, ordered by ID.
func All() []*CVE {
	return append([]*CVE(nil), corpus()...)
}

// ByID returns one corpus entry.
func ByID(id string) (*CVE, bool) {
	for _, c := range corpus() {
		if c.ID == id {
			return c, true
		}
	}
	return nil, false
}

// ForVersion filters the corpus by kernel release.
func ForVersion(version string) []*CVE {
	var out []*CVE
	for _, c := range corpus() {
		if c.Version == version {
			out = append(out, c)
		}
	}
	return out
}

var (
	treeCacheMu sync.Mutex
	treeCache   = map[string]*srctree.Tree{}
)

// Tree returns the vulnerable kernel source tree for a release: the
// shared runtime plus every corpus file. All releases share subsystem
// content (the corpus is a single population; the paper likewise tested
// each patch on whichever release it applied to). A tree is immutable,
// so it is assembled once per release and every call returns that one
// tree; a fix is applied by deriving a new tree with Patch.
func Tree(version string) *srctree.Tree {
	treeCacheMu.Lock()
	defer treeCacheMu.Unlock()
	if t, ok := treeCache[version]; ok {
		return t
	}
	files := baseFiles()
	for _, c := range corpus() {
		for p, s := range c.Files {
			if _, dup := files[p]; dup {
				panic("cvedb: duplicate corpus file " + p)
			}
			files[p] = s
		}
	}
	t := srctree.New(version, files)
	treeCache[version] = t
	return t
}
