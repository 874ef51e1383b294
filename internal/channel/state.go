package channel

// The write-ahead apply journal: the client's crash-consistent record
// of its channel position. Before an update applies, a begin record
// (position, entry identity, manifest digest) is appended; after it
// applies, a commit record follows — so a process killed at any instant
// leaves a journal from which recovery can re-derive the machine's
// exact position and detect the one update that may have been
// mid-flight. Undo and rebase records cover rollbacks and rebinds the
// same way.
//
// Appends are not fsynced one by one: the journal group-commits. Each
// client pass (a Sync or a Rollback) that appended records ends with
// one Flush, the journal's only fsync outside compaction. A process
// kill keeps the page cache, so it sees every record written. A power
// loss can drop only a suffix of the unflushed records, and it also
// reboots the kernel, which loses every hot update anyway: recovery
// treats the first missing or bad record as the end, so the journal
// only ever claims fewer updates than were applied, never more, and a
// shorter journal means fewer replays and a longer next Sync.
//
// The journal is a single append-only JSONL file. Every record carries
// a self-checksum; recovery drops the first record that fails to parse
// or verify and everything after it (a torn tail), and a journal whose
// very first record is bad degrades to "re-derive from the kernel" —
// position zero — rather than failing the subscribe. Compaction
// rewrites the file as one rebase record through internal/atomicfile,
// the same durable replace every other persisted file uses.
//
// Crash points (internal/crashpoint) are threaded through every write
// so the sweep tests can kill a subscriber at each persistence step
// and prove recovery. channel.journal.append.synced fires once a record
// is fully written; Flush, not the append, fsyncs it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gosplice/internal/atomicfile"
	"gosplice/internal/crashpoint"
)

// journalName is the journal's file name inside a client state dir.
const journalName = "apply-journal.jsonl"

// compactEvery bounds journal growth: after this many appended records
// the journal is rewritten as a single rebase record.
const compactEvery = 256

// JournalPath returns the apply journal's path under a client state
// dir — exported so tests (and operators) can inspect or corrupt it.
func JournalPath(stateDir string) string {
	return filepath.Join(stateDir, journalName)
}

// Crash-point labels for the client's persistence paths, registered in
// the process catalog so sweep tests enumerate them.
var (
	cpJournalAppendBefore = crashpoint.L("channel.journal.append.before")
	cpJournalAppendTorn   = crashpoint.L("channel.journal.append.torn")
	cpJournalAppendSynced = crashpoint.L("channel.journal.append.synced")
	cpJournalCompact      = atomicfile.Point("channel.journal.compact")
)

// journalRecord is one JSONL journal line.
//
// Ops: "rebase" (position authoritatively set — bind or compaction),
// "begin" (update at Pos is about to apply; entry identity and
// manifest digest recorded), "commit" (it applied; Pos is the new
// position), "abort" (the pending begin is resolved as not-applied),
// "undo" (a rollback step; Pos is the new, lower position).
type journalRecord struct {
	Op       string `json:"op"`
	Pos      int    `json:"pos"`
	Entry    string `json:"entry,omitempty"`
	Sha256   string `json:"sha256,omitempty"`
	Size     int64  `json:"size,omitempty"`
	Manifest string `json:"manifest,omitempty"`
	Kver     string `json:"kver,omitempty"`
	Sum      string `json:"sum,omitempty"`
}

// recordSum is the record's self-checksum over every field except Sum
// itself — what recovery verifies before trusting a line.
func recordSum(r *journalRecord) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%s|%s|%d|%s|%s",
		r.Op, r.Pos, r.Entry, r.Sha256, r.Size, r.Manifest, r.Kver)))
	return hex.EncodeToString(h[:8])
}

// JournalEntry identifies one journaled update — what a begin record
// pins about the apply that may have been mid-flight.
type JournalEntry struct {
	// Pos is the position the machine reaches once this update applies.
	Pos int
	// Name is the update's manifest entry name.
	Name string
	// Sha256 and Size are the entry tarball's manifest digest and size —
	// enough to find (and re-verify) its bytes in the blob cache.
	Sha256 string
	Size   int64
	// Manifest is the digest of the manifest the apply was driven by.
	Manifest string
}

// Recovery reports what the journal recovery pass found when a client
// state dir was opened.
type Recovery struct {
	// Position is the committed channel position recovered from disk —
	// the position the machine must be brought back to.
	Position int
	// KernelVersion is the kernel the journal was written against (""
	// when the journal never recorded one).
	KernelVersion string
	// Pending is the torn apply: a begin record with no commit or abort.
	// Recovery rolls it forward when its bytes are locally available and
	// rolls it back otherwise. Nil when the journal ended cleanly.
	Pending *JournalEntry
	// TornRecords counts journal lines dropped as torn or corrupt.
	TornRecords int
	// Corrupt is true when the journal existed but yielded nothing — a
	// corrupt or truncated state file degraded to "re-derive from the
	// kernel" (Position 0) instead of a hard failure.
	Corrupt bool
}

// ClientState owns a client's apply journal: an open append handle.
// It keeps no position of its own — the client passes the position to
// every record it writes, compaction included. Safe for concurrent use,
// though a client normally runs one Sync at a time.
type ClientState struct {
	path  string
	crash crashpoint.Hook

	mu     sync.Mutex
	f      *os.File
	recs   int
	kver   string // the kernel the last record names; compaction keeps it
	size   int64  // journal length written
	synced int64  // journal length at the last fsync
}

// OpenClientState opens (creating if needed) the apply journal under
// stateDir and runs the recovery pass: the journal is scanned, a torn
// tail truncated away, and the committed position plus any mid-flight
// apply reported. A corrupt journal is not an error — it degrades to
// a zero-position Recovery with Corrupt set. crash, when non-nil,
// receives every crash point on the journal's write paths.
func OpenClientState(stateDir string, crash crashpoint.Hook) (*ClientState, Recovery, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, Recovery{}, err
	}
	// Sweep temp files crashed writers (a compaction; in the CLI, a
	// machine-state save) left behind.
	atomicfile.SweepTemps(stateDir, 0)
	s := &ClientState{path: JournalPath(stateDir), crash: crash}
	var rec Recovery

	b, err := os.ReadFile(s.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, Recovery{}, err
	}
	good := 0 // byte offset past the last trusted record
	rest := b
	for len(rest) > 0 {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			// A record is durable only with its terminating newline; a
			// missing one is the torn half of an interrupted append.
			rec.TornRecords++
			break
		}
		line := rest[:i]
		rest = rest[i+1:]
		var r journalRecord
		if json.Unmarshal(line, &r) != nil || r.Sum != recordSum(&r) || r.Pos < 0 {
			// First bad record: drop it and everything after.
			rec.TornRecords += 1 + bytes.Count(rest, []byte{'\n'})
			if len(rest) > 0 && rest[len(rest)-1] != '\n' {
				rec.TornRecords++
			}
			rest = nil
			break
		}
		switch r.Op {
		case "rebase":
			rec.Position, rec.Pending = r.Pos, nil
			if r.Kver != "" {
				rec.KernelVersion = r.Kver
			}
		case "begin":
			rec.Pending = &JournalEntry{Pos: r.Pos, Name: r.Entry, Sha256: r.Sha256, Size: r.Size, Manifest: r.Manifest}
			if r.Kver != "" {
				rec.KernelVersion = r.Kver
			}
		case "commit", "undo":
			rec.Position, rec.Pending = r.Pos, nil
		case "abort":
			rec.Pending = nil
		default:
			rec.TornRecords += 1 + bytes.Count(rest, []byte{'\n'})
			rest = nil
		}
		if rest == nil {
			break
		}
		good = len(b) - len(rest)
		s.recs++
	}
	if good < len(b) {
		// Truncate the torn tail so the next append starts on a record
		// boundary. A crash here just re-runs the same truncation.
		if err := os.Truncate(s.path, int64(good)); err != nil {
			return nil, Recovery{}, err
		}
	}
	if len(b) > 0 && good == 0 {
		// The whole journal was unusable: degrade to re-derive.
		rec.Corrupt = true
		rec.Position, rec.Pending, rec.KernelVersion = 0, nil, ""
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, Recovery{}, err
	}
	s.f = f
	s.kver = rec.KernelVersion
	s.size, s.synced = int64(good), int64(good)
	return s, rec, nil
}

// append writes one record: marshal, checksum, write (in two halves,
// with a crash point between them — the torn-write window). Flush makes
// it durable. Callers hold s.mu.
func (s *ClientState) append(r journalRecord) error {
	r.Sum = recordSum(&r)
	b, err := json.Marshal(&r)
	if err != nil {
		return err
	}
	line := append(b, '\n')
	crashpoint.Fire(s.crash, cpJournalAppendBefore)
	half := len(line) / 2
	if _, err := s.f.Write(line[:half]); err != nil {
		return err
	}
	crashpoint.Fire(s.crash, cpJournalAppendTorn)
	if _, err := s.f.Write(line[half:]); err != nil {
		return err
	}
	s.size += int64(len(line))
	crashpoint.Fire(s.crash, cpJournalAppendSynced)
	s.recs++
	return nil
}

// Flush fsyncs the records appended since the last flush or compaction
// — the journal's group commit, once per client pass. It is free when
// nothing is pending.
func (s *ClientState) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil || s.synced == s.size {
		return nil
	}
	if err := atomicfile.Fsync(s.f); err != nil {
		return err
	}
	s.synced = s.size
	return nil
}

// Begin journals the intent to apply the update that takes the machine
// to e.Pos. Must be followed by Commit or Abort.
func (s *ClientState) Begin(e JournalEntry, kver string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(journalRecord{Op: "begin", Pos: e.Pos, Entry: e.Name, Sha256: e.Sha256, Size: e.Size, Manifest: e.Manifest, Kver: kver}); err != nil {
		return err
	}
	s.kver = kver
	return nil
}

// Commit journals that the pending update applied; pos is the new
// committed position. Compaction may fold the journal afterwards.
func (s *ClientState) Commit(pos int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(journalRecord{Op: "commit", Pos: pos}); err != nil {
		return err
	}
	if s.recs >= compactEvery {
		return s.compact(pos)
	}
	return nil
}

// Abort journals that the pending update did not (durably) apply; pos
// is the committed position, unchanged by it.
func (s *ClientState) Abort(pos int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(journalRecord{Op: "abort", Pos: pos})
}

// Undo journals one rollback step; pos is the new, lower position.
func (s *ClientState) Undo(pos int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(journalRecord{Op: "undo", Pos: pos})
}

// Rebase authoritatively sets the journal position — what Bind writes
// when a machine attaches at a known position — and compacts the
// journal down to that single fact.
func (s *ClientState) Rebase(pos int, kver string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kver = kver
	return s.compact(pos)
}

// compact rewrites the journal as one rebase record carrying position
// pos — an atomicfile.Write, after which the append handle moves to the
// new file. Callers hold s.mu. A crash before the rename leaves the old
// journal authoritative; after it, the new one.
func (s *ClientState) compact(pos int) error {
	r := journalRecord{Op: "rebase", Pos: pos, Kver: s.kver}
	r.Sum = recordSum(&r)
	b, err := json.Marshal(&r)
	if err != nil {
		return err
	}
	line := append(b, '\n')
	if err := atomicfile.Write(s.path, line, 0o644, s.crash, cpJournalCompact); err != nil {
		return err
	}
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.f.Close()
	s.f = f
	s.recs = 1
	s.size, s.synced = int64(len(line)), int64(len(line))
	return nil
}

// Close releases the journal's file handle. The journal itself stays —
// it is the machine's durable position.
func (s *ClientState) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
