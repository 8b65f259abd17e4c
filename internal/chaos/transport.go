package chaos

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Injector applies a Plan to live traffic: it keeps the per-endpoint
// request counters that index into the plan's decision stream and the
// arm time the partition windows are measured from. One Injector may
// back any number of Transports — they then share one fault
// schedule, exactly like machines sharing one flaky network.
type Injector struct {
	plan *Plan
	// OnFault, when non-nil, is called once per injected fault with
	// the endpoint, that endpoint's request index, the fault, and
	// whether a partition window forced it. Observability wiring (the
	// worker's trace marks and structured fault log) hangs off this
	// hook; it runs outside the injector's lock.
	OnFault func(endpoint string, n uint64, f Fault, partitioned bool)
	// now overrides time.Now (tests).
	now func() time.Time

	mu     sync.Mutex
	armed  time.Time
	counts map[string]uint64
	faults map[string]uint64 // per-kind injected-fault counters
}

// NewInjector arms plan: partition windows start counting now.
func NewInjector(plan *Plan) *Injector {
	in := &Injector{
		plan:   plan,
		now:    time.Now,
		counts: make(map[string]uint64),
		faults: make(map[string]uint64),
	}
	in.armed = in.now()
	return in
}

// Plan returns the injector's compiled plan.
func (in *Injector) Plan() *Plan { return in.plan }

// Next consumes the next decision for endpoint, folding in the
// partition schedule: inside a window every request drops. The
// returned fault has already been counted and logged.
func (in *Injector) Next(endpoint string) Fault {
	in.mu.Lock()
	n := in.counts[endpoint]
	in.counts[endpoint] = n + 1
	partitioned := in.plan.Partitioned(in.now().Sub(in.armed))
	in.mu.Unlock()

	f := in.plan.Decide(endpoint, n)
	if partitioned {
		f = Fault{Kind: DropRequest}
	}
	if f.Kind != None {
		in.mu.Lock()
		in.faults[f.Kind.String()]++
		in.mu.Unlock()
		if in.OnFault != nil {
			in.OnFault(endpoint, n, f, partitioned)
		}
	}
	return f
}

// Counters snapshots how many faults of each kind were injected.
func (in *Injector) Counters() map[string]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]uint64, len(in.faults))
	for k, v := range in.faults {
		out[k] = v
	}
	return out
}

// Summary renders the injected-fault counters on one line.
func (in *Injector) Summary() string {
	c := in.Counters()
	if len(c) == 0 {
		return "chaos: no faults injected"
	}
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, c[k])
	}
	return "chaos: injected " + strings.Join(parts, " ")
}

// errDropped is the transport error surfaced for lost traffic; it
// contains "chaos" so worker logs attribute the failure.
type errDropped struct{ kind Kind }

func (e errDropped) Error() string { return fmt.Sprintf("chaos: injected fault: %s", e.kind) }

// Transport is a fault-injecting http.RoundTripper — the worker-side
// middleman. Install it on dist.Worker.Client to make that worker's
// whole view of the coordinator flaky under the injector's plan.
type Transport struct {
	Injector *Injector
	// Base performs the real round trips; nil means
	// http.DefaultTransport.
	Base http.RoundTripper
}

// NewTransport returns a chaos client transport over base.
func NewTransport(in *Injector, base http.RoundTripper) *Transport {
	return &Transport{Injector: in, Base: base}
}

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.Injector.Next(req.URL.Path)
	switch f.Kind {
	case DropRequest:
		// The request never reaches the wire. Close the body as the
		// transport contract requires.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errDropped{f.Kind}
	case Err5xx:
		if req.Body != nil {
			req.Body.Close()
		}
		return synthesized503(req), nil
	case Delay:
		time.Sleep(f.Delay)
		return t.base().RoundTrip(req)
	case Dup:
		first, err := t.replay(req)
		if err == nil {
			// First delivery succeeded; discard it and deliver again.
			io.Copy(io.Discard, first.Body)
			first.Body.Close()
		}
		return t.base().RoundTrip(req)
	case DropResponse:
		resp, err := t.base().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errDropped{f.Kind}
	case Torn:
		resp, err := t.base().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(&tornReader{data: body[:len(body)/2]})
		return resp, nil
	default:
		return t.base().RoundTrip(req)
	}
}

// replay performs one extra delivery of req, rebuilding the body via
// GetBody (set for the bytes.Reader bodies the worker sends).
func (t *Transport) replay(req *http.Request) (*http.Response, error) {
	clone := req.Clone(req.Context())
	if req.GetBody != nil {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		clone.Body = body
	}
	return t.base().RoundTrip(clone)
}

// tornReader yields its data then fails with io.ErrUnexpectedEOF —
// the reader-visible shape of a connection cut mid-body.
type tornReader struct {
	data []byte
	off  int
}

func (r *tornReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func synthesized503(req *http.Request) *http.Response {
	body := "chaos: injected 503\n"
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}
