package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestAttributeSharesSumToOne(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	var sink []byte
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		sink = make([]byte, 1<<10)
	}
	_ = sink
	pprof.StopCPUProfile()
	shares, err := attribute([][]byte{prof.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, name := range shareNames() {
		sum += shares[name]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1: %v", sum, shares)
	}
	if shares["go.malloc_share"] == 0 && shares["go.gc_share"] == 0 {
		t.Errorf("an allocation loop shows no malloc or GC samples: %v", shares)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"putget/internal/sim.(*Engine).siftDown", "main.main"}, "sim.share"},
		{[]string{"putget/internal/gpusim.(*L2).Access"}, "gpusim.share"},
		{[]string{"putget/internal/runner.Map"}, "other.share"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "putget/internal/sim.NewChan"}, "go.malloc_share"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc_share"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "go.sched_share"},
		{[]string{"runtime.memmove", "putget/internal/memspace.(*RAM).WriteAt"}, "go.runtime_other_share"},
		{[]string{"sort.Float64s"}, "other.share"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := nearestRank(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := nearestRank(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}
