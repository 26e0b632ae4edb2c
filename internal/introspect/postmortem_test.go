package introspect

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cartcc/internal/mpi"
	"cartcc/internal/trace"
)

// TestHungWorldWritesPostMortem is the end-to-end post-mortem path: a
// deliberately deadlocked world (a two-rank wait-for cycle), the
// wait-for-graph watchdog diagnosing it, the failure hook persisting a
// bundle, and the bundle parsing back with the proof intact — exactly
// what an operator gets from a production hang.
func TestHungWorldWritesPostMortem(t *testing.T) {
	dir := t.TempDir()
	insp := New(Options{DumpDir: dir})
	err := mpi.Run(mpi.Config{
		Procs:        2,
		DeadlockPoll: 10 * time.Millisecond,
		OnFailure:    insp.FailureHook,
	}, func(w *mpi.Comm) error {
		insp.Bind(w.World())
		// Each rank does one send the peer receives (so the flight tail is
		// non-empty), then blocks on a receive nobody will ever post.
		if err := mpi.SendSlice(w, []int64{1}, 1-w.Rank(), 7); err != nil {
			return err
		}
		buf := make([]int64, 1)
		if _, err := mpi.RecvSlice(w, buf, 1-w.Rank(), 7); err != nil {
			return err
		}
		_, err := mpi.RecvSlice(w, buf, 1-w.Rank(), 99)
		return err
	})
	if err == nil {
		t.Fatal("deadlocked run reported success")
	}
	var de *mpi.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("run error is %v, want a DeadlockError", err)
	}

	b, err := ReadBundle(onlyBundle(t, dir))
	if err != nil {
		t.Fatalf("bundle does not parse: %v", err)
	}
	if b.Version != BundleVersion {
		t.Fatalf("bundle version %d", b.Version)
	}
	if b.Deadlock == nil {
		t.Fatal("bundle carries no wait-for proof")
	}
	if len(b.Deadlock.Blocked) == 0 {
		t.Fatal("wait-for proof lists no blocked ranks")
	}
	if b.Error == "" || !strings.Contains(b.Error, "deadlock") {
		t.Fatalf("bundle error %q does not describe the deadlock", b.Error)
	}
	if b.State.World == nil || b.State.World.Size != 2 {
		t.Fatalf("bundle state world = %+v", b.State.World)
	}
	events := 0
	sawRecvDone := false
	for _, tail := range b.Flight {
		events += len(tail)
		for _, ev := range tail {
			if ev.Kind == trace.FlightRecvDone {
				sawRecvDone = true
			}
		}
	}
	if events == 0 {
		t.Fatal("bundle carries no flight events")
	}
	if !sawRecvDone {
		t.Fatal("flight tail missing the completed receives from before the hang")
	}
	out := b.Format()
	for _, want := range []string{"wait-for proof", "blocked", "flight:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted bundle missing %q:\n%s", want, out)
		}
	}

	// Only one bundle per run: the hook is once-only even though both
	// ranks' failures cascade.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dump dir holds %d files, want exactly 1", len(entries))
	}
}

// TestRankFailureWritesPostMortem covers the typed-failure trigger: a
// rank returning an error (not a watchdog diagnosis) also dumps.
func TestRankFailureWritesPostMortem(t *testing.T) {
	dir := t.TempDir()
	insp := New(Options{DumpDir: dir})
	boom := errors.New("boom: simulated application failure")
	err := mpi.Run(mpi.Config{Procs: 2, OnFailure: insp.FailureHook}, func(w *mpi.Comm) error {
		insp.Bind(w.World())
		if err := mpi.Barrier(w); err != nil {
			return err
		}
		if w.Rank() == 1 {
			return boom
		}
		buf := make([]int64, 1)
		_, err := mpi.RecvSlice(w, buf, 1, 5) // released by the abort
		return err
	})
	if err == nil {
		t.Fatal("failed run reported success")
	}
	b, err := ReadBundle(onlyBundle(t, dir))
	if err != nil {
		t.Fatalf("bundle: %v", err)
	}
	if b.Rank != 1 {
		t.Fatalf("bundle rank = %d, want 1", b.Rank)
	}
	if !strings.Contains(b.Error, "boom") {
		t.Fatalf("bundle error %q", b.Error)
	}
	if b.Deadlock != nil {
		t.Fatal("non-deadlock failure must not carry a wait-for proof")
	}
}

// onlyBundle returns the path of the one post-mortem bundle in dir.
func onlyBundle(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "postmortem-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("dump dir holds bundles %q, want exactly 1", paths)
	}
	return paths[0]
}

func TestFailureHookNoDirAndRunWideBundle(t *testing.T) {
	cwd := t.TempDir()
	t.Chdir(cwd)
	in := New(Options{})
	in.FailureHook(0, errors.New("x")) // no dir: silently skipped
	if entries, err := os.ReadDir(cwd); err != nil || len(entries) != 0 {
		t.Fatalf("hook without a dump dir wrote %d file(s) (err %v)", len(entries), err)
	}

	dir := t.TempDir()
	in2 := New(Options{DumpDir: dir})
	in2.FailureHook(-1, errors.New("manual snapshot"))
	b, err := ReadBundle(onlyBundle(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if b.Rank != -1 || !strings.Contains(b.Error, "manual") {
		t.Fatalf("unattributed bundle = rank %d error %q", b.Rank, b.Error)
	}
	if !strings.Contains(b.Format(), "run-wide") {
		t.Fatal("unattributed rank must format as run-wide")
	}
}
