package par

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
)

var testWorkers = []int{1, 2, 3, 8, 300}

// The chunk grid must cover [0, total) exactly: contiguous,
// non-overlapping, machine-independent.
func TestChunkGridCoverage(t *testing.T) {
	for _, total := range []int{0, 1, 5, 255, 256, 257, 1000, 65536} {
		chunks := Chunks(total)
		prev := 0
		for c := 0; c < chunks; c++ {
			lo, hi := Range(total, chunks, c)
			if lo != prev {
				t.Fatalf("total %d chunk %d: lo %d, want %d", total, c, lo, prev)
			}
			if total > 0 && chunks == maxChunks && hi <= lo {
				t.Fatalf("total %d chunk %d empty", total, c)
			}
			prev = hi
		}
		if prev != total {
			t.Fatalf("total %d: grid covers %d", total, prev)
		}
	}
}

func TestForChunksRunsEveryChunkOnce(t *testing.T) {
	for _, workers := range testWorkers {
		for _, chunks := range []int{0, 1, 7, 256} {
			runs := make([]atomic.Int32, chunks)
			bound := min(workers, chunks)
			if err := ForChunks(context.Background(), workers, chunks, func(c, w int) {
				runs[c].Add(1)
				if w < 0 || w >= bound {
					t.Errorf("workers %d chunks %d: worker index %d outside [0, %d)", workers, chunks, w, bound)
				}
			}); err != nil {
				t.Fatal(err)
			}
			for c := range runs {
				if n := runs[c].Load(); n != 1 {
					t.Fatalf("workers %d chunks %d: chunk %d ran %d times", workers, chunks, c, n)
				}
			}
		}
	}
}

// Cancelling mid-run skips the chunks not yet claimed. Every chunk but
// the one that cancels blocks until the cancel, so each worker runs at
// most one chunk and the rest of the grid must be skipped.
func TestForChunksCancelSkipsRemaining(t *testing.T) {
	const chunks = 1000
	for _, workers := range testWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		err := ForChunks(ctx, workers, chunks, func(c, w int) {
			if calls.Add(1) == 1 {
				cancel()
			}
			<-ctx.Done()
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if n := int(calls.Load()); n > min(workers, chunks) {
			t.Fatalf("workers %d: %d chunks ran after the cancel, want at most one per worker", workers, n)
		}
	}
}

func TestForChunksDoneContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range testWorkers {
		var ran atomic.Bool
		if err := ForChunks(ctx, workers, 10, func(c, w int) { ran.Store(true) }); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() {
			t.Fatalf("workers %d: a chunk ran under a done context", workers)
		}
	}
}

// goid returns the current goroutine's ID from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// One worker runs inline, and worker 0 is always the caller.
func TestForChunksWorkerZeroIsCaller(t *testing.T) {
	caller := goid()
	for _, workers := range testWorkers {
		var bad atomic.Int32
		if err := ForChunks(context.Background(), workers, 64, func(c, w int) {
			if (w == 0) != (goid() == caller) {
				bad.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if bad.Load() != 0 {
			t.Fatalf("workers %d: worker 0 is not the calling goroutine", workers)
		}
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-2) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}
