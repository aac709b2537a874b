package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pond/internal/stats"
)

// draws returns a tuple of draws from the item's own RNG, seeded from
// its index the way engine callers seed theirs; any cross-item stream
// sharing or index mix-up shows up immediately.
func draws(i int, _ int) ([3]float64, error) {
	rng := stats.NewRand(stats.ShardSeed(42, i))
	return [3]float64{rng.Float64(), rng.Float64(), rng.NormFloat64()}, nil
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	items := make([]int, 64)
	ref, err := Map(context.Background(), items, 1, draws)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 33} {
		got, err := Map(context.Background(), items, workers, draws)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("results differ between workers=1 and workers=%d", workers)
		}
	}
}

func TestRunStealsUnevenWork(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// Still runs; stealing just cannot be observed via concurrency.
		t.Log("single-proc box: exercising the stealing path without true parallelism")
	}
	// Front-load all the slow work onto worker 0's deque: with 4 workers
	// items land on deques round-robin, so every 4th item is worker 0's.
	var ran atomic.Int64
	res, err := Map(context.Background(), make([]int, 32), 4,
		func(i int, _ int) (int64, error) {
			if i%4 == 0 {
				time.Sleep(5 * time.Millisecond)
			}
			ran.Add(1)
			return int64(i) + 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != int64(len(res)) {
		t.Fatalf("ran %d of %d items", ran.Load(), len(res))
	}
	for i, r := range res {
		if r == 0 {
			t.Fatalf("item %d has no result", i)
		}
	}
}

func TestRunJoinsErrorsInJobOrder(t *testing.T) {
	for _, workers := range []int{1, 2} {
		res, err := Map(context.Background(), []string{"ok-0", "bad-1", "ok-2", "bad-3"}, workers,
			func(_ int, name string) (string, error) {
				if strings.HasPrefix(name, "bad") {
					return "", errors.New(name + ": boom")
				}
				return name, nil
			})
		if err == nil {
			t.Fatalf("workers=%d: errors swallowed", workers)
		}
		msg := err.Error()
		if !strings.Contains(msg, "bad-1") || !strings.Contains(msg, "bad-3") {
			t.Fatalf("workers=%d: error missing item errors: %v", workers, err)
		}
		if strings.Index(msg, "bad-1") > strings.Index(msg, "bad-3") {
			t.Fatalf("workers=%d: errors not in item order: %v", workers, err)
		}
		if want := []string{"ok-0", "", "ok-2", ""}; !reflect.DeepEqual(res, want) {
			t.Fatalf("workers=%d: results %q, want %q", workers, res, want)
		}
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		_, err := Map(ctx, make([]int, 16), workers,
			func(int, int) (struct{}, error) {
				ran.Add(1)
				return struct{}{}, nil
			})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() == 16 {
			t.Fatalf("workers=%d: cancelled run executed every item", workers)
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if res, err := Map(context.Background(), []int(nil), 0, draws); err != nil || len(res) != 0 {
		t.Fatalf("empty run: %v %v", res, err)
	}
	res, err := Map(context.Background(), []int{0}, 8, draws)
	if err != nil || len(res) != 1 || res[0] == ([3]float64{}) {
		t.Fatalf("single item run: %v %v", res, err)
	}
}

func TestMapTypedResultsInOrder(t *testing.T) {
	items := []int{10, 20, 30, 40}
	got, err := Map(context.Background(), items, 3,
		func(i int, item int) (string, error) {
			return fmt.Sprintf("%d:%d", i, item), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0:10", "1:20", "2:30", "3:40"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}
