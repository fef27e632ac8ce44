package driver

import (
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"reflect"
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

// testBatch builds a batch exercising every codec field: multiple passes with
// per-kind breakdowns, named tracks, spans with negative starts (a rebased
// remote span can precede the receiving epoch) and negative arg values, and —
// when final — an endpoint-totals snapshot.
func testBatch(final bool) *telemetryBatch {
	b := &telemetryBatch{
		final:     final,
		epoch:     time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC).UnixNano(),
		dropped:   7,
		firstPass: 3,
		passes: []metrics.NodeStats{
			{
				TxnsScanned: 1200, Probes: 33000, Increments: 8100,
				ItemsSent: 41, ItemsReceived: 52,
				Traffic:       cluster.Traffic{BytesSent: 9001, BytesReceived: 777, MsgsSent: 12, MsgsReceived: 9},
				DataBytesSent: 8000, DataBytesReceived: 600,
				BlocksScanned: 5, BlocksSkipped: 2, BytesDecoded: 4096,
				ScanTime: 18 * time.Millisecond, BarrierWait: 3 * time.Millisecond,
				ByKind: []metrics.KindIO{
					{Kind: uint8(KData), Name: kindName(uint8(KData)), Traffic: cluster.Traffic{MsgsSent: 4, MsgsReceived: 3, BytesSent: 8000, BytesReceived: 600}},
					{Kind: uint8(KTelemetry), Name: kindName(uint8(KTelemetry)), Traffic: cluster.Traffic{MsgsSent: 1, BytesSent: 120}},
				},
			},
			{TxnsScanned: 900, ScanTime: 2 * time.Millisecond},
		},
		tracks: []obs.TrackName{
			{Node: 2, Lane: 0, Name: "node 2"},
			{Node: 2, Lane: 1, Name: "scan w0"},
		},
		spans: []obs.SpanRecord{
			{Name: "pass 3", Node: 2, Lane: 0, Start: -1500, Dur: 900000,
				Args: []obs.Arg{{Key: "candidates", Val: 412}, {Key: "delta", Val: -9}}},
			{Name: "barrier", Node: 2, Lane: 0, Start: 880000, Dur: 20000},
		},
	}
	if final {
		b.totals = &metrics.EndpointTotals{
			Traffic: cluster.Traffic{MsgsSent: 240, MsgsReceived: 238, BytesSent: 131072, BytesReceived: 99000},
			ByKind: []metrics.KindIO{
				{Kind: uint8(KSize), Name: kindName(uint8(KSize)), Traffic: cluster.Traffic{MsgsSent: 1, MsgsReceived: 1, BytesSent: 9, BytesReceived: 9}},
			},
		}
	}
	return b
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
// per-kind traffic, spans, totals — against the encoding recorded before the
// counter list moved into metrics.Counters. The order of the counters, of a
// traffic record's four figures and telemetryVersion cannot drift unnoticed:
// a change that means to move them bumps the version and regenerates the file
// (hex.Dump of the payload).
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
	huge = append(huge, 0x80, 0x80, 0x80, 0x80, 0x10) // epoch
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

// TestPlaneRejectsOutOfRangeValues: every uvarint the telemetry plane and the
// plan hint narrow is narrowed through the cursor. Each of these used to wrap
// into a negative duration, total, dropped count or pass number and be
// ingested as such.
func TestPlaneRejectsOutOfRangeValues(t *testing.T) {
	const big = 1<<63 + 5
	uv := func(dst []byte, vs ...uint64) []byte {
		for _, v := range vs {
			dst = wire.AppendUvarint(dst, v)
		}
		return dst
	}
	head := func(epoch, dropped, firstPass uint64) []byte {
		return uv([]byte{telemetryVersion, 0}, epoch, dropped, firstPass)
	}
	pass := func(scanTime uint64) []byte {
		b := uv(nil, 1) // one pass
		for i := 0; i < 14; i++ {
			b = uv(b, uint64(i))
		}
		return uv(b, scanTime, 0 /* barrier wait */, 0 /* kinds */)
	}
	for _, c := range []struct {
		name string
		p    []byte
		ok   bool
	}{
		{"control", uv(head(1, 2, 3), 0, 0, 0), true},
		{"dropped wraps negative", uv(head(1, big, 3), 0, 0, 0), false},
		{"epoch wraps negative", uv(head(big, 2, 3), 0, 0, 0), false},
		{"first pass wraps negative", uv(head(1, 2, big), 0, 0, 0), false},
		{"control pass", uv(append(head(1, 2, 3), pass(5000)...), 0, 0), true},
		{"scan time wraps negative", uv(append(head(1, 2, 3), pass(big)...), 0, 0), false},
		{"track node beyond int32", append(uv(head(1, 2, 3), 0, 1, 1<<32+1, 0), wire.AppendStr(nil, "n")...), false},
		{"span duration wraps negative", uv(append(uv(head(1, 2, 3), 0, 0, 1), wire.AppendStr(nil, "s")...), 0, 0, 0, big, 0), false},
	} {
		if _, err := decodeTelemetry(c.p); (err == nil) != c.ok {
			t.Errorf("telemetry %s: err %v, want ok=%v", c.name, err, c.ok)
		}
	}

	hint := &metrics.SkewReport{Pass: 2, BarrierWaitMaxOverMean: 1.5, BytesSentCV: 0.25, Straggler: -1}
	good := appendSkewHint(uv(nil, 3), hint)
	if pass, got, err := decodeSkewHint(good); err != nil || pass != 3 || !reflect.DeepEqual(got, hint) {
		t.Fatalf("skew hint round trip: pass %d, %+v, %v", pass, got, err)
	}
	for name, p := range map[string][]byte{
		"pass wraps negative":         appendSkewHint(uv(nil, big), hint),
		"snapshot pass wraps":         append(uv(nil, 3, 1, big), good[3:]...),
		"bad presence byte":           uv(nil, 3, 2),
		"trailing bytes":              append(append([]byte(nil), good...), 0),
		"truncated":                   good[:len(good)-1],
		"absent hint, trailing bytes": uv(nil, 3, 0, 0),
	} {
		if _, _, err := decodeSkewHint(p); err == nil {
			t.Errorf("skew hint %s: accepted", name)
		}
	}
}

// FuzzTelemetry feeds arbitrary payloads to the two decoders of the plane: a
// follower's KTelemetry batch and the coordinator's KPlan hint. Neither may
// panic, and an accepted payload re-encodes to bytes that decode to the same
// value (not the same bytes: a uvarint has non-minimal spellings).
func FuzzTelemetry(f *testing.F) {
	f.Add(appendTelemetry(nil, testBatch(false)))
	f.Add(appendTelemetry(nil, testBatch(true)))
	f.Add(appendTelemetry(nil, &telemetryBatch{firstPass: 1}))
	f.Add(appendSkewHint([]byte{2}, nil))
	f.Add(appendSkewHint([]byte{3}, &metrics.SkewReport{Pass: 2, BarrierWaitMaxOverMean: 1.5, Straggler: -1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		if b, err := decodeTelemetry(p); err == nil {
			b2, err := decodeTelemetry(appendTelemetry(nil, b))
			if err != nil || !reflect.DeepEqual(b, b2) {
				t.Fatalf("telemetry re-encode: %v\n got %+v\nwant %+v", err, b2, b)
			}
		}
		if pass, s, err := decodeSkewHint(p); err == nil {
			pass2, s2, err := decodeSkewHint(appendSkewHint(wire.AppendUvarint(nil, uint64(pass)), s))
			// Compare the ratios by bit pattern: NaN is a legal payload.
			if err != nil || pass2 != pass || (s == nil) != (s2 == nil) ||
				(s != nil && string(appendSkewHint(nil, s)) != string(appendSkewHint(nil, s2))) {
				t.Fatalf("plan hint re-encode: %v: pass %d/%d, %+v vs %+v", err, pass, pass2, s, s2)
			}
		}
	})
}
