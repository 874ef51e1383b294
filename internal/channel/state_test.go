package channel

// Unit tests for the write-ahead apply journal: op round trips, torn
// tails, wholly corrupt journals, compaction, and deterministic crash
// points at every step of the append and compact paths. These run
// without a kernel — the journal is just files — so they cover the
// recovery state machine exhaustively and cheaply; the crash sweep
// test (crashsweep_test.go) proves the same paths end to end against
// a real subscribing machine.

import (
	"os"
	"strings"
	"testing"

	"gosplice/internal/crashpoint"
)

func mustOpen(t *testing.T, dir string, h crashpoint.Hook) (*ClientState, Recovery) {
	t.Helper()
	s, rec, err := OpenClientState(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

func TestJournalOpsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, dir, nil)
	if rec.Position != 0 || rec.Pending != nil || rec.Corrupt || rec.TornRecords != 0 {
		t.Fatalf("fresh journal recovery = %+v", rec)
	}
	if err := s.Rebase(0, "sim-test"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.Begin(JournalEntry{Pos: i, Name: "u", Sha256: strings.Repeat("a", 64), Size: 10, Manifest: "m"}, "sim-test"); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Undo(2); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, rec2 := mustOpen(t, dir, nil)
	defer s2.Close()
	if rec2.Position != 2 || rec2.Pending != nil || rec2.KernelVersion != "sim-test" {
		t.Fatalf("recovered %+v, want position 2 on sim-test with nothing pending", rec2)
	}
}

func TestJournalPendingBeginSurvives(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, nil)
	s.Begin(JournalEntry{Pos: 1, Name: "a"}, "v")
	s.Commit(1)
	s.Begin(JournalEntry{Pos: 2, Name: "b", Sha256: strings.Repeat("b", 64)}, "v")
	s.Close() // process dies between begin and commit

	s2, rec := mustOpen(t, dir, nil)
	defer s2.Close()
	if rec.Position != 1 {
		t.Fatalf("position %d, want 1", rec.Position)
	}
	if rec.Pending == nil || rec.Pending.Pos != 2 || rec.Pending.Name != "b" {
		t.Fatalf("pending = %+v, want the torn begin at pos 2", rec.Pending)
	}
	// An abort resolves it.
	if err := s2.Abort(1); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	_, rec3 := mustOpen(t, dir, nil)
	if rec3.Position != 1 || rec3.Pending != nil {
		t.Fatalf("after abort: %+v", rec3)
	}
}

func TestJournalTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, nil)
	s.Begin(JournalEntry{Pos: 1, Name: "a"}, "v")
	s.Commit(1)
	s.Close()

	// Append half a record with no newline — a torn write.
	f, err := os.OpenFile(JournalPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"commit","pos":9,"su`)
	f.Close()

	s2, rec := mustOpen(t, dir, nil)
	if rec.Position != 1 || rec.TornRecords != 1 || rec.Corrupt {
		t.Fatalf("torn-tail recovery = %+v, want position 1 with 1 torn record", rec)
	}
	// The tail was truncated away: appending and re-reading works.
	if err := s2.Undo(0); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	_, rec3 := mustOpen(t, dir, nil)
	if rec3.Position != 0 || rec3.TornRecords != 0 {
		t.Fatalf("after truncate+append: %+v", rec3)
	}
}

func TestJournalChecksumRejectsTampering(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, nil)
	s.Begin(JournalEntry{Pos: 1, Name: "a"}, "v")
	s.Commit(1)
	s.Begin(JournalEntry{Pos: 2, Name: "b"}, "v")
	s.Commit(2)
	s.Close()

	// Flip the second commit's position in place: parseable JSON, wrong sum.
	b, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(b), `"op":"commit","pos":2`, `"op":"commit","pos":7`, 1)
	if tampered == string(b) {
		t.Fatal("tamper target not found")
	}
	os.WriteFile(JournalPath(dir), []byte(tampered), 0o644)

	s2, rec := mustOpen(t, dir, nil)
	defer s2.Close()
	// Everything from the tampered record on is dropped; the position is
	// the last trusted commit, and the dangling begin at pos 2 is pending.
	if rec.Position != 1 || rec.TornRecords != 1 {
		t.Fatalf("tampered recovery = %+v, want position 1, 1 torn record", rec)
	}
	if rec.Pending == nil || rec.Pending.Pos != 2 {
		t.Fatalf("pending = %+v, want the now-uncommitted begin", rec.Pending)
	}
}

func TestJournalWhollyCorruptRederives(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(JournalPath(dir), []byte("not json at all\ngarbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec := mustOpen(t, dir, nil)
	defer s.Close()
	if !rec.Corrupt || rec.Position != 0 || rec.Pending != nil {
		t.Fatalf("corrupt journal recovery = %+v, want re-derive at 0", rec)
	}
	if rec.TornRecords != 2 {
		t.Fatalf("TornRecords = %d, want 2 dropped lines", rec.TornRecords)
	}
	// The journal is usable again after the degrade.
	if err := s.Rebase(3, "v"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, rec2 := mustOpen(t, dir, nil)
	if rec2.Position != 3 || rec2.Corrupt {
		t.Fatalf("after re-derive and rebase: %+v", rec2)
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, nil)
	for i := 1; i <= compactEvery+10; i++ {
		if err := s.Begin(JournalEntry{Pos: i, Name: "u"}, "v"); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(i); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Compaction must have fired at least once: the file holds far fewer
	// than 2*(compactEvery+10) records.
	if fi.Size() > int64(compactEvery*40) {
		t.Fatalf("journal never compacted: %d bytes", fi.Size())
	}
	s.Close()
	_, rec := mustOpen(t, dir, nil)
	if rec.Position != compactEvery+10 {
		t.Fatalf("position %d after compaction, want %d", rec.Position, compactEvery+10)
	}
}

// TestJournalCrashPointsRecover kills the journal at every crash point
// on its append and compact paths and asserts the reopened journal
// reports a consistent position: either the pre-write position or the
// post-write one, with any torn record detected and dropped.
func TestJournalCrashPointsRecover(t *testing.T) {
	labels := []string{
		cpJournalAppendBefore,
		cpJournalAppendTorn,
		cpJournalAppendSynced,
		cpJournalCompact.Tmp,
		cpJournalCompact.Renamed,
	}
	for _, label := range labels {
		t.Run(label, func(t *testing.T) {
			dir := t.TempDir()
			setup, _ := mustOpen(t, dir, nil)
			setup.Begin(JournalEntry{Pos: 1, Name: "a"}, "v")
			setup.Commit(1)
			setup.Close()

			plan := crashpoint.NewPlan(label, 1)
			s, _ := mustOpen(t, dir, plan.Hook())
			death := crashpoint.Catch(func() {
				// Rebase exercises the compact path; Begin+Commit the
				// append path. One of them dies, depending on the label.
				if err := s.Rebase(1, "v"); err != nil {
					t.Error(err)
				}
				if err := s.Begin(JournalEntry{Pos: 2, Name: "b"}, "v"); err != nil {
					t.Error(err)
				}
				if err := s.Commit(2); err != nil {
					t.Error(err)
				}
			})
			if death == nil {
				t.Fatalf("crash point %s never fired", label)
			}
			s.Close()

			s2, rec := mustOpen(t, dir, nil)
			defer s2.Close()
			if rec.Corrupt {
				t.Fatalf("recovery found a corrupt journal after %s", label)
			}
			// Position is 1 (crash before the second commit was written)
			// or 2 (after); never anything else, and a pending begin may
			// only name pos 2.
			if rec.Position != 1 && rec.Position != 2 {
				t.Fatalf("recovered position %d after %s", rec.Position, label)
			}
			if rec.Pending != nil && rec.Pending.Pos != 2 {
				t.Fatalf("pending %+v after %s", rec.Pending, label)
			}
			// No stray compaction temp files survive reopen.
			ents, _ := os.ReadDir(dir)
			for _, e := range ents {
				if strings.HasPrefix(e.Name(), ".tmp-") {
					t.Errorf("stray temp %s after recovery", e.Name())
				}
			}
		})
	}
}
