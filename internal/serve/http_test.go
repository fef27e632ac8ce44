package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgarm/internal/item"
	"pgarm/internal/model"
	"pgarm/internal/obs"
	"pgarm/internal/rules"
	"pgarm/internal/taxonomy"
)

// writeSnapshot persists a one-rule model whose consequent identifies the
// snapshot, returning the path and the index version (checksum hex).
func writeSnapshot(t *testing.T, dir, name string, cons item.Item, conf float64) (path, version string) {
	t.Helper()
	m := &model.Model{
		Meta:     model.Meta{Dataset: "test", Algorithm: "Cumulate", NumTxns: 100, CreatedUnix: 1},
		Taxonomy: testTax(),
		Rules: []rules.Rule{
			rule([]item.Item{shirts}, []item.Item{cons}, conf, 0.1, 10),
		},
	}
	path = filepath.Join(dir, name)
	if err := model.WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	ix, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, ix.Version()
}

func postRecommend(t *testing.T, client *http.Client, url string, req RecommendRequest) (*RecommendResponse, int) {
	t.Helper()
	body, _ := json.Marshal(&req)
	resp, err := client.Post(url+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("recommend: %v", err)
	}
	defer resp.Body.Close()
	var out RecommendResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("recommend decode: %v", err)
		}
	}
	return &out, resp.StatusCode
}

func TestHTTPEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path, version := writeSnapshot(t, dir, "m.pgarm", shoes, 0.8)
	ix, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := NewServer(NewHolder(ix), NewCache(64), ServerOptions{ModelPath: path, Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// healthz reports the loaded snapshot.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(hb), version) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, hb)
	}

	// A basket query answers taxonomy-aware via HTTP.
	out, code := postRecommend(t, ts.Client(), ts.URL, RecommendRequest{Basket: []item.Item{shirts}, K: 5})
	if code != http.StatusOK || len(out.Recommendations) != 1 || !item.Equal(out.Recommendations[0].Items, []item.Item{shoes}) {
		t.Fatalf("recommend: %d %+v", code, out)
	}
	if out.Model != version || out.Cached {
		t.Fatalf("first query: model %q cached %v", out.Model, out.Cached)
	}

	// Same basket, different order/dups: must hit the cache (normalization
	// is part of the key).
	out2, _ := postRecommend(t, ts.Client(), ts.URL, RecommendRequest{Basket: []item.Item{shirts, shirts}, K: 5})
	if !out2.Cached {
		t.Fatal("equivalent basket missed the cache")
	}

	// Rules listing.
	resp, err = http.Get(ts.URL + "/v1/rules?limit=10")
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(rb), `"total":1`) {
		t.Fatalf("rules: %d %s", resp.StatusCode, rb)
	}
	// Root-scoped listing: the antecedent lives in the clothes tree.
	resp, err = http.Get(ts.URL + fmt.Sprintf("/v1/rules?root=%d", clothes))
	if err != nil {
		t.Fatal(err)
	}
	rb, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(rb), `"total":1`) {
		t.Fatalf("root-scoped rules: %s", rb)
	}

	// Bad requests.
	if _, code := postRecommend(t, ts.Client(), ts.URL, RecommendRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty basket: want 400, got %d", code)
	}

	// Metrics expose the request histogram and cache counters.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"pgarm_serve_request_seconds_bucket",
		"pgarm_serve_cache_hits_total 1",
		"pgarm_serve_cache_misses_total 1",
		"pgarm_serve_snapshot_generation 1",
		"pgarm_serve_rules 1",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRecommendBodyBound: a recommend body over maxRecommendBody is refused
// with 413 without being decoded, and the server goes on answering normal
// queries.
func TestRecommendBodyBound(t *testing.T) {
	path, _ := writeSnapshot(t, t.TempDir(), "m.pgarm", shoes, 0.8)
	ix, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(NewHolder(ix), nil, ServerOptions{}).Handler())
	defer ts.Close()

	// A well-formed basket, repeated past the bound so only its size is
	// wrong.
	body := `{"k":5,"basket":[` + strings.Repeat("1,", maxRecommendBody/2) + `1]}`
	resp, err := ts.Client().Post(ts.URL+"/v1/recommend", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s, want 413", resp.StatusCode, b)
	}

	out, code := postRecommend(t, ts.Client(), ts.URL, RecommendRequest{Basket: []item.Item{shirts}, K: 5})
	if code != http.StatusOK || len(out.Recommendations) != 1 {
		t.Fatalf("query after the oversized body: %d %+v", code, out)
	}
}

func TestHTTPServesNothingBeforeLoad(t *testing.T) {
	srv := NewServer(NewHolder(nil), nil, ServerOptions{Registry: obs.NewRegistry()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, code := postRecommend(t, ts.Client(), ts.URL, RecommendRequest{Basket: []item.Item{1}})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("want 503 before load, got %d", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz before load: want 503, got %d", resp.StatusCode)
	}
}

func TestReloadFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	path, version := writeSnapshot(t, dir, "m.pgarm", shoes, 0.8)
	ix, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := NewServer(NewHolder(ix), nil, ServerOptions{ModelPath: path, Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Corrupt snapshot on disk: reload must fail loudly...
	bad := filepath.Join(dir, "bad.pgarm")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/reload?model="+bad, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload of corrupt snapshot: want 500, got %d", resp.StatusCode)
	}
	// ...while the old snapshot keeps answering.
	out, code := postRecommend(t, ts.Client(), ts.URL, RecommendRequest{Basket: []item.Item{shirts}})
	if code != http.StatusOK || out.Model != version {
		t.Fatalf("old snapshot gone after failed reload: %d %+v", code, out)
	}
}

// TestHotSwapZeroFailures is the zero-downtime reload contract: concurrent
// clients hammer /v1/recommend while the model file is swapped repeatedly;
// every response must be a 200 whose recommendations are consistent with the
// snapshot version it claims to come from. Run with -race to also prove the
// readers never observe a torn index.
func TestHotSwapZeroFailures(t *testing.T) {
	dir := t.TempDir()
	pathA, versionA := writeSnapshot(t, dir, "a.pgarm", shoes, 0.8)
	pathB, versionB := writeSnapshot(t, dir, "b.pgarm", boots, 0.9)
	if versionA == versionB {
		t.Fatal("snapshots not distinct")
	}
	wantByVersion := map[string]item.Item{versionA: shoes, versionB: boots}

	ix, err := LoadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewHolder(ix), NewCache(128), ServerOptions{Registry: obs.NewRegistry()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 8
	var (
		stop     atomic.Bool
		requests atomic.Int64
		failures atomic.Int64
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; !stop.Load(); i++ {
				// Alternate cached and uncached paths under the swap.
				req := RecommendRequest{Basket: []item.Item{shirts}, K: 3, NoCache: i%2 == 0}
				body, _ := json.Marshal(&req)
				resp, err := client.Post(ts.URL+"/v1/recommend", "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					continue
				}
				var out RecommendResponse
				derr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				requests.Add(1)
				if resp.StatusCode != http.StatusOK || derr != nil {
					failures.Add(1)
					continue
				}
				want, known := wantByVersion[out.Model]
				if !known || len(out.Recommendations) != 1 || !item.Equal(out.Recommendations[0].Items, []item.Item{want}) {
					t.Errorf("torn response: model %q -> %+v", out.Model, out.Recommendations)
					failures.Add(1)
				}
			}
		}(c)
	}

	// Swap back and forth while the clients run.
	deadline := time.Now().Add(600 * time.Millisecond)
	paths := []string{pathB, pathA}
	swaps := 0
	for time.Now().Before(deadline) {
		p := paths[swaps%2]
		resp, err := http.Post(ts.URL+"/reload?model="+p, "", nil)
		if err != nil {
			t.Errorf("reload: %v", err)
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("reload returned %d", resp.StatusCode)
		}
		swaps++
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if swaps < 10 {
		t.Fatalf("only %d swaps executed", swaps)
	}
	if requests.Load() == 0 {
		t.Fatal("no requests executed")
	}
	if failures.Load() != 0 {
		t.Fatalf("%d of %d in-flight requests failed across %d hot swaps", failures.Load(), requests.Load(), swaps)
	}
	t.Logf("%d requests over %d hot swaps, 0 failures", requests.Load(), swaps)
}

// TestHealthzFreshnessFields pins the /healthz freshness contract the
// streaming pipeline's monitoring relies on: generation, checksum and
// age_seconds in the JSON body, and the snapshot-age gauge plus
// reload-failure counter on /metrics.
func TestHealthzFreshnessFields(t *testing.T) {
	dir := t.TempDir()
	path, version := writeSnapshot(t, dir, "m.pgarm", shoes, 0.8)
	ix, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewHolder(ix), nil, ServerOptions{ModelPath: path, Registry: obs.NewRegistry()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		OK         bool    `json:"ok"`
		Generation int64   `json:"generation"`
		Checksum   string  `json:"checksum"`
		AgeSeconds float64 `json:"age_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !hz.OK || hz.Generation != 1 {
		t.Fatalf("healthz: %+v", hz)
	}
	if hz.Checksum != version {
		t.Fatalf("checksum %q, want %q", hz.Checksum, version)
	}
	// The test snapshot is created with CreatedUnix=1, so its age is huge —
	// the point is that the field is present, non-negative and derived from
	// the snapshot's creation time.
	if hz.AgeSeconds <= 0 {
		t.Fatalf("age_seconds = %v, want > 0 for a CreatedUnix=1 snapshot", hz.AgeSeconds)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"pgarm_snapshot_age_seconds",
		"pgarm_serve_reload_failures_total 0",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// With no snapshot loaded the gauge reports -1, distinguishable from
	// "very fresh".
	empty := NewServer(NewHolder(nil), nil, ServerOptions{Registry: obs.NewRegistry()})
	if got := snapshotAge(empty.Holder().Get()); got != -1 {
		t.Fatalf("snapshotAge with no model = %v, want -1", got)
	}
}

// TestReloadKeepsOrSwapsTaxonomy: a reload whose snapshot has the live
// parent vector serves the live taxonomy pointer; one whose hierarchy moved
// a single item builds the new taxonomy and answers through it.
func TestReloadKeepsOrSwapsTaxonomy(t *testing.T) {
	dir := t.TempDir()
	pathA, _ := writeSnapshot(t, dir, "a.pgarm", shoes, 0.8)
	pathB, versionB := writeSnapshot(t, dir, "b.pgarm", boots, 0.9)
	ix, err := LoadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewHolder(ix), nil, ServerOptions{Registry: obs.NewRegistry()})
	if err := srv.ReloadFile(pathB); err != nil {
		t.Fatal(err)
	}
	if got := srv.Holder().Get(); got.Version() != versionB || got.Taxonomy() != ix.Taxonomy() {
		t.Fatalf("reload over the same hierarchy: version %s, taxonomy kept %v", got.Version(), got.Taxonomy() == ix.Taxonomy())
	}

	// jackets moves from outerwear to footwear: a jackets basket now
	// reaches the footwear => shirts rule.
	moved := taxonomy.MustNew([]item.Item{item.None, item.None, 0, 0, 1, 1, 2, 1})
	pathC := filepath.Join(dir, "c.pgarm")
	if err := model.WriteFile(pathC, &model.Model{
		Meta:     model.Meta{Dataset: "test", Algorithm: "Cumulate", NumTxns: 100, CreatedUnix: 1},
		Taxonomy: moved,
		Rules:    []rules.Rule{rule([]item.Item{footwear}, []item.Item{shirts}, 0.7, 0.1, 10)},
	}); err != nil {
		t.Fatal(err)
	}
	before := srv.Holder().Get()
	if recs := before.Recommend(before.Normalize([]item.Item{jackets}), 3); len(recs) != 0 {
		t.Fatalf("old hierarchy answered a jackets basket: %+v", recs)
	}
	if err := srv.ReloadFile(pathC); err != nil {
		t.Fatal(err)
	}
	after := srv.Holder().Get()
	if after.Taxonomy() == ix.Taxonomy() || after.Taxonomy().Parent(jackets) != footwear {
		t.Fatalf("reload over a moved hierarchy kept the old taxonomy (parent of jackets %d)", after.Taxonomy().Parent(jackets))
	}
	recs := after.Recommend(after.Normalize([]item.Item{jackets}), 3)
	if len(recs) != 1 || !item.Equal(recs[0].Items, []item.Item{shirts}) {
		t.Fatalf("jackets basket under the moved hierarchy: %+v, want shirts", recs)
	}
}

// TestConcurrentReloadsReplyOwnGeneration: reloads racing each other (a
// follower's POST against a SIGHUP or another POST) each reply with the
// generation their own swap published, so no two replies share one.
func TestConcurrentReloadsReplyOwnGeneration(t *testing.T) {
	dir := t.TempDir()
	path, version := writeSnapshot(t, dir, "m.pgarm", shoes, 0.8)
	ix, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewHolder(ix), nil, ServerOptions{ModelPath: path, Registry: obs.NewRegistry()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const reloaders, each = 8, 100
	gens := make(chan int64, reloaders*each)
	var wg sync.WaitGroup
	for g := 0; g < reloaders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp, err := http.Post(ts.URL+"/reload", "", nil)
				if err != nil {
					t.Error(err)
					return
				}
				var out struct {
					Model      string `json:"model"`
					Generation int64  `json:"generation"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || out.Model != version {
					t.Errorf("reload: status %d, reply %+v, err %v", resp.StatusCode, out, err)
					return
				}
				gens <- out.Generation
			}
		}()
	}
	wg.Wait()
	close(gens)
	seen := make(map[int64]bool)
	for g := range gens {
		if seen[g] {
			t.Fatalf("two reloads replied with generation %d", g)
		}
		seen[g] = true
	}
	if _, last := srv.Holder().Current(); len(seen) != reloaders*each || last != 1+reloaders*each {
		t.Fatalf("%d distinct replies, holder at generation %d, want %d and %d", len(seen), last, reloaders*each, 1+reloaders*each)
	}
}
