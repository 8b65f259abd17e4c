package gpusim_test

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"rcoal/internal/gpusim"
	"rcoal/internal/mechanism"
)

// traceDigestFile pins every event the simulator emits on traced
// 64-line AES launches: one line per case, "<case> <events> <digest>",
// the digest taken over the sorted multiset of events, so only the
// order in which events are emitted may change without failing
// TestTraceMultisetPinned. Regenerate with
// go test ./internal/gpusim -run 'TestTraceMultisetPinned$' -update
// only for a deliberate model change.
const traceDigestFile = "testdata/trace_digests.txt"

// recordSink keeps every event it is given.
type recordSink struct{ events []gpusim.Event }

func (s *recordSink) Emit(e gpusim.Event) { s.events = append(s.events, e) }

// eventMultisetDigest returns the event count and the first 16 hex
// digits of the SHA-256 of the events sorted field by field.
func eventMultisetDigest(events []gpusim.Event) (int, string) {
	sorted := slices.Clone(events)
	slices.SortFunc(sorted, func(a, b gpusim.Event) int {
		return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.SM, b.SM), cmp.Compare(a.Warp, b.Warp), cmp.Compare(a.PC, b.PC),
			cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.Round, b.Round),
			cmp.Compare(a.Part, b.Part), cmp.Compare(a.N, b.N))
	})
	h := sha256.New()
	var buf []byte
	for _, e := range sorted {
		buf = buf[:0]
		for _, v := range []int64{e.Cycle, int64(e.Kind), int64(e.SM), int64(e.Warp), int64(e.PC),
			int64(e.Addr), int64(e.Round), int64(e.Part), e.N} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		h.Write(buf)
	}
	return len(sorted), hex.EncodeToString(h.Sum(nil)[:8])
}

// TestTraceMultisetPinned runs traced 64-line AES launches with the L2
// off and on and with MSHRs on, under the baseline and a randomized
// defense, and one-warp 32-line launches, whose replies come back as
// one booked train per load, with the L2 off and on under those two
// defenses and no coalescing. It checks each launch's sorted event
// multiset against traceDigestFile: the timing of every issue,
// transaction, DRAM service, reply and retirement is pinned, not only
// the Result.
func TestTraceMultisetPinned(t *testing.T) {
	update := flag.Lookup("update").Value.(flag.Getter).Get().(bool)
	pinned := map[string]string{}
	if !update {
		f, err := os.Open(traceDigestFile)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, rest, ok := strings.Cut(sc.Text(), " "); ok {
				pinned[name] = rest
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	l2Off := func(*gpusim.Config) {}
	l2On := func(c *gpusim.Config) { c.L2Enabled, c.L2 = true, gpusim.DefaultL2() }
	baseAndRSSRTS := []mechanism.Mechanism{mechanism.Baseline(), mechanism.RSSRTS(8)}
	oneWarp := append(slices.Clone(baseAndRSSRTS), mechanism.NoCoal())
	variants := []struct {
		name  string
		k     *gpusim.Kernel
		mechs []mechanism.Mechanism
		mut   func(*gpusim.Config)
	}{
		{"l2-off", aesKernel(t, 64), baseAndRSSRTS, l2Off},
		{"l2-on", aesKernel(t, 64), baseAndRSSRTS, l2On},
		{"mshr", aesKernel(t, 64), baseAndRSSRTS, func(c *gpusim.Config) { c.MSHREnabled = true }},
		{"1warp-l2-off", aesKernel(t, 32), oneWarp, l2Off},
		{"1warp-l2-on", aesKernel(t, 32), oneWarp, l2On},
	}
	got := map[string]string{}
	for _, v := range variants {
		for _, mech := range v.mechs {
			for _, seed := range []uint64{1, 2} {
				sink := &recordSink{}
				cfg := gpusim.DefaultConfig()
				cfg.Defense = mech
				cfg.Trace = sink
				v.mut(&cfg)
				g, err := gpusim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := g.Run(v.k, seed); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/%d", v.name, mech.Name(), seed)
				n, sum := eventMultisetDigest(sink.events)
				got[name] = fmt.Sprintf("%d %s", n, sum)
				if !update && pinned[name] != got[name] {
					t.Errorf("%s: events and digest %q, pinned %q: the timeline changed", name, got[name], pinned[name])
				}
			}
		}
	}
	if !update {
		return
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, got[name])
	}
	if err := os.WriteFile(traceDigestFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
