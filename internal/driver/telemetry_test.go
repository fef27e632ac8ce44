package driver

import (
	"encoding/hex"
	"encoding/json"
	"math"
	"net"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"pgarm/internal/cluster"
	"pgarm/internal/metrics"
	"pgarm/internal/obs"
	"pgarm/internal/wire"
)

func TestZigzagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1998, -1998, math.MaxInt64, math.MinInt64} {
		d := wire.NewDec(wire.AppendZig(nil, v))
		if got := d.Zig(); got != v || d.Done() != nil {
			t.Errorf("Zig(AppendZig(%d)) = %d, err %v", v, got, d.Done())
		}
	}
}

// testBatch builds a batch exercising every codec field: both clock stamps,
// multiple passes with per-kind breakdowns, named tracks, spans with negative
// arg values, and — when final — an endpoint-totals snapshot.
func testBatch(final bool) *telemetryBatch {
	b := &telemetryBatch{
		final:     final,
		sentAt:    int64(41 * time.Second),
		bcastAt:   int64(40 * time.Second),
		dropped:   7,
		firstPass: 3,
		passes: []metrics.NodeStats{
			{
				TxnsScanned: 1200, Probes: 33000, Increments: 8100,
				ItemsSent: 41, ItemsReceived: 52,
				Traffic:       cluster.Traffic{BytesSent: 9001, BytesReceived: 777, MsgsSent: 12, MsgsReceived: 9},
				DataBytesSent: 8000, DataBytesReceived: 600,
				BlocksScanned: 5, BytesDecoded: 4096,
				ScanTime: 18 * time.Millisecond, BarrierWait: 3 * time.Millisecond,
				ByKind: []metrics.KindIO{
					{Kind: uint8(KData), Name: kindName(uint8(KData)), Traffic: cluster.Traffic{MsgsSent: 4, MsgsReceived: 3, BytesSent: 8000, BytesReceived: 600}},
					{Kind: uint8(KTelemetry), Name: kindName(uint8(KTelemetry)), Traffic: cluster.Traffic{MsgsSent: 1, BytesSent: 120}},
				},
			},
			{TxnsScanned: 900, ScanTime: 2 * time.Millisecond},
		},
		tracks: []obs.TrackName{
			{Lane: 0, Name: "node 2"},
			{Lane: 1, Name: "scan w0"},
		},
		spans: []obs.SpanRecord{
			{Name: "pass 3", Lane: 0, Start: 1500, Dur: 900000,
				Args: []obs.Arg{{Key: "candidates", Val: 412}, {Key: "delta", Val: -9}}},
			{Name: "barrier", Lane: 1, Start: 880000, Dur: 20000},
		},
	}
	if final {
		b.totals = &metrics.EndpointTotals{
			Traffic: cluster.Traffic{MsgsSent: 240, MsgsReceived: 238, BytesSent: 131072, BytesReceived: 99000},
			ByKind: []metrics.KindIO{
				{Kind: kRetired1, Name: kindName(kRetired1), Traffic: cluster.Traffic{MsgsSent: 1, MsgsReceived: 1, BytesSent: 9, BytesReceived: 9}},
			},
		}
	}
	return b
}

// exchange runs one synthetic round trip against c and returns the offset
// of the sample observe keeps. The follower's clock reads theta ahead of node 0's;
// node 0 sends the bcast at t1, it spends out in transit, the follower holds
// it for hold, and the batch back spends back in transit and in node 0's
// inbox.
func exchange(c *peerClock, theta, t1, out, hold, back int64) int64 {
	c.sent = t1
	t2 := t1 + out + theta
	t3 := t2 + hold
	c.recv = t3 - theta + back
	c.observe(t2, t3)
	return c.best.offset
}

// clockThetas are the follower clock offsets the round-trip tests run at:
// none, ahead and behind.
var clockThetas = []int64{0, 100 * int64(time.Millisecond), -250 * int64(time.Millisecond)}

// TestClockOffsetSymmetricLegs: NTP's four-timestamp rule, as the plane
// applies it to a bcast out and a telemetry batch back, gives the exact
// offset when the two legs take equal time, whatever the follower's hold.
func TestClockOffsetSymmetricLegs(t *testing.T) {
	const ms = int64(time.Millisecond)
	for _, theta := range clockThetas {
		for _, hold := range []int64{0, 40 * ms} {
			var c peerClock
			if got := exchange(&c, theta, 5*ms, 2*ms, hold, 2*ms); got != theta {
				t.Errorf("theta %d, hold %d: offset %d", theta, hold, got)
			}
			if c.best.delay != 4*ms {
				t.Errorf("theta %d, hold %d: delay %d, want %d", theta, hold, c.best.delay, 4*ms)
			}
		}
	}
}

// TestClockOffsetAsymmetricLegs: unequal legs bias the offset by half their
// difference, toward the follower reading behind when the way back is slower.
func TestClockOffsetAsymmetricLegs(t *testing.T) {
	const ms = int64(time.Millisecond)
	for _, theta := range clockThetas {
		var c peerClock
		if got, want := exchange(&c, theta, 5*ms, 1*ms, 40*ms, 5*ms), theta-2*ms; got != want {
			t.Errorf("theta %d: offset %d, want %d", theta, got, want)
		}
		if c.best.delay != 6*ms {
			t.Errorf("theta %d: delay %d, want %d", theta, c.best.delay, 6*ms)
		}
	}
}

// TestClockOffsetLeastDelayWins: the least-delay sample of the run wins over
// samples queued in node 0's inbox, whichever order they arrive in.
func TestClockOffsetLeastDelayWins(t *testing.T) {
	const ms = int64(time.Millisecond)
	for _, theta := range clockThetas {
		// A batch that waited 30 ms for node 0 to reach its gather is the
		// only sample at first, so its bias stands; a prompt round trip
		// replaces it, and a later queued one does not.
		var c peerClock
		if got, want := exchange(&c, theta, 5*ms, 1*ms, 40*ms, 31*ms), theta-15*ms; got != want {
			t.Errorf("queued sample, theta %d: offset %d, want %d", theta, got, want)
		}
		if got := exchange(&c, theta, 90*ms, 1*ms, 40*ms, 1*ms); got != theta {
			t.Errorf("prompt sample, theta %d: offset %d, want %d", theta, got, theta)
		}
		if got := exchange(&c, theta, 200*ms, 1*ms, 40*ms, 61*ms); got != theta {
			t.Errorf("queued after prompt, theta %d: offset %d, want %d", theta, got, theta)
		}
		if c.best.delay != 2*ms {
			t.Errorf("theta %d: kept delay %d, want %d", theta, c.best.delay, 2*ms)
		}
	}
}

// quietMiner is panicMiner without the panics: every node reports no
// frequents of its own in pass 2, so the run ends there.
type quietMiner struct{ panicMiner }

func (m *quietMiner) CountPass(*Node, int, *metrics.NodeStats) (PassOutcome, error) {
	return PassOutcome{}, nil
}

// TestMeshBarrierClockOffsets runs three workers over a loopback TCP mesh,
// each with its own tracer, started 100 ms apart: follower i's tracer clock
// reads i*100 ms behind the coordinator's. The coordinator's estimates from
// the pass barriers must find that offset, sign included; it keeps no
// estimate for itself and the followers keep none at all.
func TestMeshBarrierClockOffsets(t *testing.T) {
	const (
		n       = 3
		stagger = 100 * time.Millisecond
		// The estimate errs by at most half the delay of its round trip:
		// goroutine wake-ups on loopback, far below the stagger.
		tolerance = 40 * time.Millisecond
	)
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	tracers := make([]*obs.Tracer, n)
	for i := range tracers {
		if i > 0 {
			time.Sleep(stagger)
		}
		tracers[i] = obs.NewTracer()
	}
	nodes := make([]*Node, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, mesh, err := cluster.DialMesh(i, addrs, cluster.MeshOptions{Listener: listeners[i], DialTimeout: 10 * time.Second})
			if err != nil {
				errs[i] = err
				return
			}
			defer mesh.Close()
			spec := Spec{MinSupport: 0.5, Tracer: tracers[i]}
			nodes[i], _, errs[i] = runWorker(spec, threeItems, basket(), ep, func() (Miner, error) { return &quietMiner{}, nil })
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	clocks := nodes[0].tel.clocks
	if len(clocks) != n {
		t.Fatalf("coordinator keeps %d clock exchanges, want %d", len(clocks), n)
	}
	if clocks[0] != (peerClock{}) {
		t.Errorf("coordinator's own clock exchange = %+v, want none", clocks[0])
	}
	for i := 1; i < n; i++ {
		c := clocks[i]
		if !c.ok {
			t.Errorf("node %d: no clock sample", i)
			continue
		}
		want := -time.Duration(i) * stagger
		if got := time.Duration(c.best.offset); (got - want).Abs() > tolerance {
			t.Errorf("node %d: offset %v, want %v within %v (delay %v)", i, got, want, tolerance, time.Duration(c.best.delay))
		}
	}
	for i := 1; i < n; i++ {
		if got := nodes[i].tel.clocks; got != nil {
			t.Errorf("follower %d keeps clock exchanges %v, want none", i, got)
		}
	}
}

func TestTelemetryCodecRoundTrip(t *testing.T) {
	for _, final := range []bool{false, true} {
		in := testBatch(final)
		got, err := decodeTelemetry(appendTelemetry(nil, in))
		if err != nil {
			t.Fatalf("final=%v: decode: %v", final, err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("final=%v: round trip mismatch:\n got %+v\nwant %+v", final, got, in)
		}
	}
}

// TestTelemetryGolden pins the KTelemetry bytes of one final batch — passes,
// per-kind traffic, spans, totals — against a recorded encoding. The set and
// order of the metrics.Counters rows, the order of a traffic record's four
// figures and telemetryVersion cannot drift unnoticed: a change that means to
// move them bumps the version and regenerates the file (hex.Dump of the
// payload).
func TestTelemetryGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/telemetry_final.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.Dump(appendTelemetry(nil, testBatch(true))); got != string(want) {
		t.Errorf("KTelemetry v%d encoding differs from testdata/telemetry_final.golden:\n%s", telemetryVersion, got)
	}
}

func TestTelemetryCodecRejectsCorruption(t *testing.T) {
	good := appendTelemetry(nil, testBatch(true))
	if _, err := decodeTelemetry(good); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}

	cases := map[string][]byte{
		"wrong version":  append([]byte{telemetryVersion + 1}, good[1:]...),
		"empty":          {},
		"trailing bytes": append(append([]byte(nil), good...), 0xee),
		// A truncation at every prefix length must error, never panic or
		// fabricate a batch.
		"truncated": good[:len(good)-1],
	}
	for name, p := range cases {
		if _, err := decodeTelemetry(p); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := decodeTelemetry(good[:cut]); err == nil {
			t.Errorf("truncation at %d bytes decoded successfully", cut)
		}
	}

	// A corrupt collection count larger than the payload must be rejected by
	// the length bound, not drive a huge allocation.
	huge := []byte{telemetryVersion, 0}
	huge = append(huge, 0x80, 0x80, 0x80, 0x80, 0x10) // t3
	huge = append(huge, 0x80, 0x80, 0x80, 0x80, 0x0f) // t2
	huge = append(huge, 0)                            // dropped
	huge = append(huge, 1)                            // firstPass
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f) // numPasses: absurd
	if _, err := decodeTelemetry(huge); err == nil {
		t.Error("absurd collection count decoded successfully")
	}
}

func TestClusterViewLifecycle(t *testing.T) {
	// Nil receiver: every method is a safe no-op.
	var nilView *ClusterView
	nilView.Init(0, 4)
	nilView.StartPass(2, 10)
	nilView.SetNodePass(1, 1)
	nilView.SetSkew(metrics.SkewReport{})
	nilView.Finish()
	if snap := nilView.Snapshot(); snap.Nodes != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}

	cv := &ClusterView{}
	cv.Init(0, 3)
	cv.StartPass(2, 41)
	cv.SetNodePass(0, 2)
	cv.SetNodePass(1, 1)
	cv.SetNodePass(99, 5) // out of range: ignored
	cv.SetSkew(metrics.SkewReport{Pass: 1, Straggler: 2})

	snap := cv.Snapshot()
	if snap.Nodes != 3 || snap.Node != 0 || snap.Pass != 2 || snap.Candidates != 41 || snap.Done {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Progress) != 3 {
		t.Fatalf("progress = %+v", snap.Progress)
	}
	// Node 1 has shipped only pass 1 while pass 2 runs: lag 1. Node 2 has
	// shipped nothing: lag 2.
	if snap.Progress[1].Lag != 1 || snap.Progress[2].Lag != 2 || snap.Progress[0].Lag != 0 {
		t.Fatalf("lags = %+v", snap.Progress)
	}
	if snap.Skew == nil || snap.Skew.Straggler != 2 {
		t.Fatalf("skew = %+v", snap.Skew)
	}

	cv.Finish()
	if snap := cv.Snapshot(); !snap.Done || snap.Progress[2].Lag != 0 {
		t.Fatalf("after Finish: %+v", snap)
	}

	// The HTTP surface serves the same snapshot as JSON.
	rec := httptest.NewRecorder()
	cv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/cluster", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var decoded ClusterSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if !reflect.DeepEqual(decoded, cv.Snapshot()) {
		t.Fatalf("served %+v, snapshot %+v", decoded, cv.Snapshot())
	}
}

// TestPlaneRejectsOutOfRangeValues: every uvarint the telemetry plane
// narrows is narrowed through the cursor. Each of these used to wrap into a
// negative duration, total, dropped count or pass number and be ingested as
// such.
func TestPlaneRejectsOutOfRangeValues(t *testing.T) {
	const big = 1<<63 + 5
	uv := func(dst []byte, vs ...uint64) []byte {
		for _, v := range vs {
			dst = wire.AppendUvarint(dst, v)
		}
		return dst
	}
	head := func(t3, t2, dropped, firstPass uint64) []byte {
		return uv([]byte{telemetryVersion, 0}, t3, t2, dropped, firstPass)
	}
	pass := func(scanTime uint64) []byte {
		b := uv(nil, 1) // one pass
		// Every counter row ahead of the two durations, scan time and
		// barrier wait.
		for i := 0; i < len(metrics.Counters)-2; i++ {
			b = uv(b, uint64(i))
		}
		return uv(b, scanTime, 0 /* barrier wait */, 0 /* kinds */)
	}
	for _, c := range []struct {
		name string
		p    []byte
		ok   bool
	}{
		{"control", uv(head(9, 1, 2, 3), 0, 0, 0), true},
		{"dropped wraps negative", uv(head(9, 1, big, 3), 0, 0, 0), false},
		{"t3 wraps negative", uv(head(big, 1, 2, 3), 0, 0, 0), false},
		{"t2 wraps negative", uv(head(9, big, 2, 3), 0, 0, 0), false},
		{"first pass wraps negative", uv(head(9, 1, 2, big), 0, 0, 0), false},
		{"control pass", uv(append(head(9, 1, 2, 3), pass(5000)...), 0, 0), true},
		{"scan time wraps negative", uv(append(head(9, 1, 2, 3), pass(big)...), 0, 0), false},
		{"track lane beyond int32", append(uv(head(9, 1, 2, 3), 0, 1, 1<<32+1), wire.AppendStr(nil, "n")...), false},
		{"span start wraps negative", uv(append(uv(head(9, 1, 2, 3), 0, 0, 1), wire.AppendStr(nil, "s")...), 0, big, 0, 0), false},
		{"span duration wraps negative", uv(append(uv(head(9, 1, 2, 3), 0, 0, 1), wire.AppendStr(nil, "s")...), 0, 0, big, 0), false},
	} {
		if _, err := decodeTelemetry(c.p); (err == nil) != c.ok {
			t.Errorf("telemetry %s: err %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// FuzzTelemetry feeds arbitrary payloads to the plane's decoder, a follower's
// KTelemetry batch. It may not panic, and an accepted payload re-encodes to
// bytes that decode to the same value (not the same bytes: a uvarint has
// non-minimal spellings).
func FuzzTelemetry(f *testing.F) {
	f.Add(appendTelemetry(nil, testBatch(false)))
	f.Add(appendTelemetry(nil, testBatch(true)))
	f.Add(appendTelemetry(nil, &telemetryBatch{firstPass: 1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		if b, err := decodeTelemetry(p); err == nil {
			b2, err := decodeTelemetry(appendTelemetry(nil, b))
			if err != nil || !reflect.DeepEqual(b, b2) {
				t.Fatalf("telemetry re-encode: %v\n got %+v\nwant %+v", err, b2, b)
			}
		}
	})
}
