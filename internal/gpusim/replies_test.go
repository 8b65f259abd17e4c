package gpusim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rcoal/internal/gpusim/icnt"
	"rcoal/internal/gpusim/mem"
	"rcoal/internal/rng"
)

// craftedReply is one reply of a crafted train: its source and the
// cycle its data is ready.
type craftedReply struct {
	src  int
	done int64
}

// craftTrain returns a train issued at cycle now from the given
// sources, n replies each, every source readying its replies at
// strictly increasing cycles gap cycles apart at most, interleaved in
// a random issue order that keeps each source's order.
func craftTrain(r *rng.Source, now int64, sources []int, n, gap int) []craftedReply {
	var perSource [][]craftedReply
	for _, s := range sources {
		var run []craftedReply
		done := now
		for range n {
			done += 1 + int64(r.Intn(gap))
			run = append(run, craftedReply{s, done})
		}
		perSource = append(perSource, run)
	}
	var train []craftedReply
	for len(perSource) > 0 {
		i := r.Intn(len(perSource))
		train = append(train, perSource[i][0])
		if perSource[i] = perSource[i][1:]; len(perSource[i]) == 0 {
			perSource = slices.Delete(perSource, i, i+1)
		}
	}
	return train
}

// TestBookTrainOrdersByKey books crafted trains the way a batched
// launch does (issueMemory marks each key as its transaction is
// served, bookTrain orders and books them) and checks the delivery
// cycles against the train's keys sorted with slices.Sort and booked
// one Reserve at a time, and that sorted order against the order a
// replyQueue holding the same replies pops them. The trains run on one
// GPU in turn, so each also checks that the last left no key marked.
func TestBookTrainOrdersByKey(t *testing.T) {
	r := rng.New(0x7EA1)
	cases := []struct {
		name    string
		sources int // 6 partitions, with L2s 12 sources
		now     int64
		train   []craftedReply
	}{
		{"one-entry", 6, 100, []craftedReply{{4, 180}}},
		{"interleaved", 6, 200, craftTrain(r, 200, []int{0, 1, 2, 3, 4, 5}, 5, 3)},
		{"same-cycle", 6, 300, []craftedReply{{5, 340}, {0, 340}, {3, 340}, {1, 341}, {0, 341}}},
		{"l2-sources", 12, 400, craftTrain(r, 400, []int{0, 1, 2, 3, 4, 7, 8, 9, 10, 11}, 3, 2)},
		{"l2-hits-each-cycle", 12, 500, craftTrain(r, 500, []int{2, 6, 10}, 8, 1)},
		{"wider-than-a-word", 6, 600, []craftedReply{{2, 610}, {1, 650}, {0, 611}, {3, 630}}},
		{"over-4096-keys", 12, 700, []craftedReply{{9, 790}, {0, 701}, {9, 1900}, {4, 1200}, {0, 1499}}},
		{"after-the-widest", 6, 800, craftTrain(r, 800, []int{1, 3, 5}, 6, 4)},
	}
	g := &GPU{}
	toSM, _ := icnt.NewSlots(2, 8, 2)
	ref, _ := icnt.NewSlots(2, 8, 2)
	st := &runState{toSM: toSM}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sm := &smState{replyQ: newReplyQueue(c.sources), warps: []*warpRun{{prog: &WarpProgram{}}}}
			g.train.start(sm.replyQ.key(c.now, 0))
			keys := make([]int64, 0, len(c.train))
			for _, x := range c.train {
				key := sm.replyQ.key(x.done, x.src)
				sm.batch = append(sm.batch, key)
				g.train.add(key)
				keys = append(keys, key)
				sm.replyQ.push(x.src, &mem.Request{Done: x.done})
			}
			g.bookTrain(st, sm, 1, len(c.train))

			slices.Sort(keys)
			want := make([]int64, len(keys))
			for i, k := range keys {
				if popped := sm.replyQ.pop().Done; popped != sm.replyQ.done(k) {
					t.Fatalf("reply %d: the queue pops Done %d, the sorted keys give %d", i, popped, sm.replyQ.done(k))
				}
				want[i] = ref.Reserve(1, sm.replyQ.done(k))
			}
			if !slices.Equal(sm.batchAt, want) {
				t.Fatalf("delivered at %v, want %v", sm.batchAt, want)
			}
			if i := slices.IndexFunc(g.train.words, func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Fatalf("word %d still marked after the train", i)
			}
		})
	}
}

// TestBookTrainPanicsOnCollidingKeys checks that a train holding one key
// twice, which no source can yield, panics like a reply underflow.
func TestBookTrainPanicsOnCollidingKeys(t *testing.T) {
	g := &GPU{}
	toSM, _ := icnt.NewSlots(1, 8, 2)
	st := &runState{toSM: toSM}
	sm := &smState{replyQ: newReplyQueue(6), warps: []*warpRun{{prog: &WarpProgram{ID: 3}}}}
	g.train.start(sm.replyQ.key(10, 0))
	for _, x := range []craftedReply{{1, 40}, {2, 41}, {1, 40}} {
		key := sm.replyQ.key(x.done, x.src)
		sm.batch = append(sm.batch, key)
		g.train.add(key)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "warp 3 reply key collision") {
			t.Fatalf("recovered %q, want a key collision panic", msg)
		}
	}()
	g.bookTrain(st, sm, 0, len(sm.batch))
}
