package tracevis

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"rcoal/internal/aes"
	"rcoal/internal/gpusim"
	"rcoal/internal/kernels"
	"rcoal/internal/mechanism"
	"rcoal/internal/rng"
)

// decoded mirrors the wire format loosely, for schema validation.
type decoded struct {
	TraceEvents []map[string]any `json:"traceEvents"`
}

// validateChromeTrace runs the exported schema validator and decodes
// the trace for further assertions.
func validateChromeTrace(t *testing.T, raw []byte) decoded {
	t.Helper()
	if err := Validate(raw); err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}
	var d decoded
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	return d
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents":`,
		"unknown phase": `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":0,"tid":0}]}`,
		"unsorted": `{"traceEvents":[` +
			`{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"r"}},` +
			`{"name":"a","ph":"i","ts":5,"pid":0,"tid":0},` +
			`{"name":"b","ph":"i","ts":4,"pid":0,"tid":0}]}`,
		"X without dur": `{"traceEvents":[` +
			`{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"r"}},` +
			`{"name":"a","ph":"X","ts":0,"pid":0,"tid":0}]}`,
		"E without B": `{"traceEvents":[` +
			`{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"r"}},` +
			`{"name":"a","ph":"E","ts":0,"pid":0,"tid":0}]}`,
		"unmatched B": `{"traceEvents":[` +
			`{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"r"}},` +
			`{"name":"a","ph":"B","ts":0,"pid":0,"tid":0}]}`,
		"unnamed row": `{"traceEvents":[{"name":"a","ph":"i","ts":0,"pid":0,"tid":0}]}`,
	}
	for name, raw := range cases {
		if err := Validate([]byte(raw)); err == nil {
			t.Errorf("%s: Validate accepted malformed trace", name)
		}
	}
}

func TestExportGolden(t *testing.T) {
	// A fixed synthetic event sequence must serialize byte-for-byte
	// stably: emission order is scrambled, export sorts by timestamp and
	// keeps emission order among ties.
	x := New()
	x.Emit(gpusim.Event{Cycle: 40, Kind: gpusim.EvDRAMService, Part: 2, Addr: 0x1740, N: 30})
	x.Emit(gpusim.Event{Cycle: 5, Kind: gpusim.EvIssue, SM: 1, Warp: 3, PC: 7})
	x.Emit(gpusim.Event{Cycle: 5, Kind: gpusim.EvCoalesce, SM: 1, Warp: 3, Round: 9, N: 4})
	x.Emit(gpusim.Event{Cycle: 6, Kind: gpusim.EvMemTx, SM: 1, Warp: 3, Round: 9, Addr: 0x1740})
	x.Emit(gpusim.Event{Cycle: 44, Kind: gpusim.EvReply, SM: 1, Warp: 3})

	var buf bytes.Buffer
	if err := x.Export(&buf); err != nil {
		t.Fatal(err)
	}
	validateChromeTrace(t, buf.Bytes())

	const want = `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"SM cores"}},` +
		`{"name":"process_sort_index","ph":"M","ts":0,"pid":0,"tid":0,"args":{"sort_index":0}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"DRAM partitions"}},` +
		`{"name":"process_sort_index","ph":"M","ts":0,"pid":1,"tid":0,"args":{"sort_index":1}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":2,"args":{"name":"partition 2"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":1,"args":{"name":"sm 1"}},` +
		`{"name":"issue","ph":"i","ts":5,"pid":0,"tid":1,"s":"t","args":{"pc":7,"warp":3}},` +
		`{"name":"coalesce","ph":"i","ts":5,"pid":0,"tid":1,"s":"t","args":{"round":9,"tx":4,"warp":3}},` +
		`{"name":"memtx","ph":"i","ts":6,"pid":0,"tid":1,"s":"t","args":{"addr":"0x1740","round":9,"warp":3}},` +
		`{"name":"service","ph":"X","ts":10,"dur":30,"pid":1,"tid":2,"args":{"addr":"0x1740"}},` +
		`{"name":"reply","ph":"i","ts":44,"pid":0,"tid":1,"s":"t","args":{"warp":3}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}
}

func TestExportFromSimulation(t *testing.T) {
	// End to end: trace a real AES launch and check the export is a
	// valid Chrome trace containing both new event kinds on their
	// designated tracks.
	c, err := aes.NewCipher([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	k, _, err := kernels.Build(c, kernels.RandomPlaintext(rng.New(3), 64))
	if err != nil {
		t.Fatal(err)
	}
	x := New()
	cfg := gpusim.DefaultConfig()
	cfg.Defense = mechanism.RSS(4)
	cfg.Trace = x
	g, err := gpusim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(k, 17); err != nil {
		t.Fatal(err)
	}
	if x.Len() == 0 {
		t.Fatal("simulation emitted no events")
	}

	var buf bytes.Buffer
	if err := x.Export(&buf); err != nil {
		t.Fatal(err)
	}
	d := validateChromeTrace(t, buf.Bytes())
	var coalesce, service int
	for _, e := range d.TraceEvents {
		switch e["name"] {
		case "coalesce":
			if int(e["pid"].(float64)) != PidSM {
				t.Fatal("coalesce event off the SM process")
			}
			coalesce++
		case "service":
			if int(e["pid"].(float64)) != PidDRAM {
				t.Fatal("service event off the DRAM process")
			}
			service++
		}
	}
	if coalesce == 0 || service == 0 {
		t.Fatalf("trace has %d coalesce and %d service events, want both > 0", coalesce, service)
	}

	// Reset empties the buffer for the next launch.
	x.Reset()
	if x.Len() != 0 {
		t.Error("Reset left events behind")
	}
}

func TestWriteFile(t *testing.T) {
	x := New()
	x.Emit(gpusim.Event{Cycle: 1, Kind: gpusim.EvIssue, SM: 0})
	dir := t.TempDir()
	path := dir + "/trace.json"
	if err := x.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("directory holds %v (%v), want only the trace", entries, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	validateChromeTrace(t, raw)
	if !strings.Contains(string(raw), `"issue"`) {
		t.Error("written trace missing event")
	}
}
