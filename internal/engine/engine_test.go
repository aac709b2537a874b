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

// draws returns a tuple of draws from an item's RNG; any cross-item
// stream sharing or seed drift shows up immediately.
func draws(_ int, _ int, rng *stats.Rand) ([3]float64, error) {
	return [3]float64{rng.Float64(), rng.Float64(), rng.NormFloat64()}, nil
}

func TestSeedForIsOrderIndependent(t *testing.T) {
	// Same (root, shard) must always map to the same seed, distinct
	// shards to distinct seeds.
	seen := map[int64]int{}
	for shard := 0; shard < 1000; shard++ {
		s := SeedFor(42, shard)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: shards %d and %d both map to %d", prev, shard, s)
		}
		seen[s] = shard
	}
	if SeedFor(42, 7) != SeedFor(42, 7) {
		t.Fatal("SeedFor not a pure function")
	}
	if SeedFor(42, 7) == SeedFor(43, 7) {
		t.Fatal("root seed ignored")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	items := make([]int, 64)
	ref, err := Map(context.Background(), items, Options{Workers: 1, Seed: 42}, draws)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 33} {
		got, err := Map(context.Background(), items, Options{Workers: workers, Seed: 42}, draws)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("results differ between workers=1 and workers=%d", workers)
		}
	}
	// A different root seed must change the streams.
	other, err := Map(context.Background(), items, Options{Workers: 4, Seed: 43}, draws)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ref, other) {
		t.Fatal("root seed had no effect")
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
	res, err := Map(context.Background(), make([]int, 32), Options{Workers: 4, Seed: 1},
		func(i int, _ int, rng *stats.Rand) (int64, error) {
			if i%4 == 0 {
				time.Sleep(5 * time.Millisecond)
			}
			ran.Add(1)
			return rng.Int63(), nil
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
		res, err := Map(context.Background(), []string{"ok-0", "bad-1", "ok-2", "bad-3"}, Options{Workers: workers, Seed: 1},
			func(_ int, name string, _ *stats.Rand) (string, error) {
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
		_, err := Map(ctx, make([]int, 16), Options{Workers: workers, Seed: 1},
			func(int, int, *stats.Rand) (struct{}, error) {
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
	if res, err := Map(context.Background(), []int(nil), Options{}, draws); err != nil || len(res) != 0 {
		t.Fatalf("empty run: %v %v", res, err)
	}
	res, err := Map(context.Background(), []int{0}, Options{Workers: 8, Seed: 5}, draws)
	if err != nil || len(res) != 1 || res[0] == ([3]float64{}) {
		t.Fatalf("single item run: %v %v", res, err)
	}
}

func TestMapTypedResultsInOrder(t *testing.T) {
	items := []int{10, 20, 30, 40}
	got, err := Map(context.Background(), items, Options{Workers: 3, Seed: 9},
		func(i int, item int, rng *stats.Rand) (string, error) {
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
