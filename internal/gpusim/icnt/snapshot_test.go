package icnt

import (
	"reflect"
	"testing"

	"rcoal/internal/rng"
)

// TestSnapshotRestoreEquivalence is the snapshot/restore property
// test: book random traffic, snapshot mid-stream, keep booking on the
// original (the mutation and the reference), then Restore into the same
// and a fresh direction and require the identical delivery tail.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 20; trial++ {
		ports := 2 + r.Intn(4)
		latency, occupancy := 1+r.Intn(4), 1+r.Intn(2)
		x, err := NewSlots(ports, latency, occupancy)
		if err != nil {
			t.Fatal(err)
		}
		type inject struct {
			dst int
			at  int64
		}
		var stream []inject
		for i, at := 0, int64(0); i < 5+r.Intn(30); i++ {
			at += int64(r.Intn(3))
			stream = append(stream, inject{r.Intn(ports), at})
		}
		cut := len(stream) / 2
		for _, in := range stream[:cut] {
			x.Reserve(in.dst, in.at)
		}
		snap := x.Snapshot()
		tail := func(x *Slots) []int64 {
			var out []int64
			for _, in := range stream[cut:] {
				out = append(out, x.Reserve(in.dst, in.at))
			}
			return out
		}
		want := tail(x)

		x.Restore(snap)
		if got := tail(x); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: same-direction restore tail differs\n got %v\nwant %v", trial, got, want)
		}
		fresh, err := NewSlots(ports, latency, occupancy)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Restore(snap)
		if got := tail(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: fresh-direction restore tail differs", trial)
		}
	}
}

// TestSnapshotRestorePortCountGuard pins the structural-mismatch
// panic.
func TestSnapshotRestorePortCountGuard(t *testing.T) {
	x, err := NewSlots(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := x.Snapshot()
	other, err := NewSlots(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("restore across port counts did not panic")
		}
	}()
	other.Restore(snap)
}
