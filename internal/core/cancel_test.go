package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"gorder/internal/gen"
)

func TestOrderWithCtxMatchesOrderWith(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 3)
	want := OrderWith(g, Options{})
	got, err := OrderWithCtx(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for u := range want {
		if want[u] != got[u] {
			t.Fatalf("perm[%d] = %d, want %d", u, got[u], want[u])
		}
	}
}

func TestOrderWithCtxCanceled(t *testing.T) {
	g := gen.BarabasiAlbert(5000, 6, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := OrderWithCtx(ctx, g, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p != nil {
		t.Fatalf("canceled run returned a permutation of %d vertices", len(p))
	}
}

func TestOrderWithCtxDeadline(t *testing.T) {
	// Large enough that the greedy loop cannot finish in a microsecond;
	// the deadline must interrupt it rather than letting it run on.
	g := gen.BarabasiAlbert(20000, 8, 7)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := OrderWithCtx(ctx, g, Options{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("OrderWithCtx ignored its deadline")
	}
}

func TestOrderParallelCtxCanceled(t *testing.T) {
	g := gen.BarabasiAlbert(5000, 6, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OrderPartitionedCtx(ctx, g, Options{}, PartitionedOptions{Workers: 4, Partitions: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
