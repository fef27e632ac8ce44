package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/model"
	"pgarm/internal/obs"
	"pgarm/internal/rules"
	"pgarm/internal/serve"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

const (
	recommendK   = 5
	maxBasket    = 12
	cacheEntries = 4096 // pgarm-serve's default -cache
	fixedBaskets = 32   // replies compared against direct Index.Recommend
	refEvery     = 4    // serving rounds per host reference sample
)

// mined is what every miner family hands to rule derivation.
type mined interface {
	All() []itemset.Counted
	SupportIndex() map[string]int64
}

// servable is the tail of the pipeline: a mining result becomes a snapshot
// on disk and a query-ready index. Each stage is a span; the caller times the
// whole.
type servable struct {
	Rules []rules.Rule
	Model *model.Model
	Index *serve.Index       // nil when the snapshot was hot-swapped into a server
	stage map[string]float64 // per-layer metric name -> seconds
}

// buildServable derives rules from res and writes the snapshot to path. When
// srv is nil the snapshot is loaded into a fresh index (the batch path);
// otherwise it is hot-swapped into srv (the streaming path).
func buildServable(rec *recorder, tax *taxonomy.Taxonomy, res mined, large [][]itemset.Counted, meta model.Meta, state *model.MiningState, path string, srv *serve.Server) (*servable, error) {
	out := &servable{stage: make(map[string]float64)}
	var all []itemset.Counted
	var support map[string]int64
	var err error
	out.stage["rules.support_index_s"], _ = rec.timed("rules.support_index", func() error {
		all, support = res.All(), res.SupportIndex()
		return nil
	})
	out.stage["rules.derive_s"], err = rec.timed("rules.derive", func() (err error) {
		out.Rules, err = rules.Derive(tax, all, support, rules.Config{MinConfidence: meta.MinConfidence, NumTxns: int(meta.NumTxns)})
		return err
	})
	if err != nil {
		return nil, err
	}
	meta.Tool = model.ToolVersion
	meta.CreatedUnix = time.Now().Unix()
	out.Model = &model.Model{Meta: meta, Taxonomy: tax, Large: large, Rules: out.Rules, State: state}
	out.stage["model.write_s"], err = rec.timed("model.write", func() error {
		return model.WriteFile(path, out.Model)
	})
	if err != nil {
		return nil, err
	}
	if srv != nil {
		out.stage["serve.reload_s"], err = rec.timed("serve.reload", func() error {
			return srv.ReloadFile(path)
		})
		return out, err
	}
	out.stage["serve.load_s"], err = rec.timed("serve.load", func() (err error) {
		out.Index, err = serve.LoadFile(path)
		return err
	})
	return out, err
}

// frontend is the default pgarm-serve deployment on a loopback port.
type frontend struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	tr     *http.Transport
}

func newFrontend(ix *serve.Index, modelPath string) *frontend {
	srv := serve.NewServer(serve.NewHolder(ix), serve.NewCache(cacheEntries),
		serve.ServerOptions{ModelPath: modelPath, Registry: obs.NewRegistry()})
	tr := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}
	return &frontend{
		srv:    srv,
		ts:     httptest.NewServer(srv.Handler()),
		tr:     tr,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
	}
}

func (f *frontend) close() {
	f.tr.CloseIdleConnections()
	f.ts.Close()
}

// basketMix draws request baskets zipf(1.2) over the transactions the model
// was mined from, so a small set of popular baskets dominates and the tail
// stays long: what gives a basket-keyed cache something to hit and to miss.
type basketMix struct {
	txns []txn.Transaction
	perm []int
	zipf *rand.Zipf
}

func newBasketMix(txns []txn.Transaction, seed int64) *basketMix {
	rng := rand.New(rand.NewSource(seed))
	return &basketMix{
		txns: txns,
		// The permutation decouples zipf rank from transaction order.
		perm: rng.Perm(len(txns)),
		zipf: rand.NewZipf(rng, 1.2, 1, uint64(len(txns)-1)),
	}
}

func (m *basketMix) next() []item.Item {
	b := m.txns[m.perm[m.zipf.Uint64()]].Items
	if len(b) > maxBasket {
		b = b[:maxBasket]
	}
	return b
}

func marshalRequest(basket []item.Item) []byte {
	b, err := json.Marshal(serve.RecommendRequest{Basket: basket, K: recommendK})
	if err != nil {
		panic(err) // static struct; cannot fail
	}
	return b
}

// serving is what the load generator observed. The gated tail is p95: with
// two hardware threads a concurrent GC cycle slows a few percent of requests,
// p99 sits inside that population and does not repeat from run to run (spread
// 17-31% even at reference host speed), p95 sits below it. p99 is still
// reported, ungated, as serve.http_p99_ms.
type serving struct {
	P50ms, P95ms, P99ms, QPS []float64 // one sample per round
	Ref                      []float64 // host reference kernel, beside the rounds
	MissMs                   []float64 // latencies of uncached replies, all rounds
	Requests, Hits           int
	Reloads                  int
	Baskets                  [][]item.Item // every basket requested, for the direct arm
	Failures                 []error
}

// serveMeasured is the serving phase of an untraced run: load for the given
// share of the run's seconds from a collected heap, the end-to-end serving
// metrics, and the fixed-basket check.
func serveMeasured(t *tally, e2e *metricSet, f *frontend, mix *basketMix, b budget, share float64, reloadEvery int) *serving {
	runtime.GC()
	sv := serveLoad(nil, f, mix, b, b.deadline(share), reloadEvery)
	t.add(sv.Requests+sv.Reloads, sv.Failures)
	speed := hostSpeed(sv.Ref)
	e2e.setAtHostSpeed("recommend_p50_ms", sv.P50ms, speed)
	e2e.setAtHostSpeed("recommend_p95_ms", sv.P95ms, speed)
	e2e.setAtHostSpeed("serve_qps", sv.QPS, 1/speed)
	t.add(checkReplies(f, mix))
	return sv
}

// serveLoad drives rounds of RoundReqs closed-loop requests from the clients
// until at least b.MinRounds rounds have run and the deadline has
// passed. Each caller waits for its reply before sending the next request:
// recommendation callers do. With reloadEvery > 0, client 0 also POSTs
// /reload once per that many requests, starting half-way to the first
// multiple, so a hot swap and a cold cache land beside live reads.
func serveLoad(rec *recorder, f *frontend, mix *basketMix, b budget, deadline time.Time, reloadEvery int) *serving {
	out := &serving{}
	parent := rec.current()
	url := f.ts.URL + "/v1/recommend"
	issued, nextReload := 0, reloadEvery/2 // nextReload is client 0's alone
	for round := 0; round < b.MinRounds || time.Now().Before(deadline); round++ {
		if round%refEvery == 0 {
			out.Ref = append(out.Ref, hostRef())
		}
		bodies := make([][]byte, b.RoundReqs)
		for i := range bodies {
			basket := mix.next()
			out.Baskets = append(out.Baskets, basket)
			bodies[i] = marshalRequest(basket)
		}
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			lat  []float64
			fail []error
		)
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var myLat, myMiss []float64
				var myFail []error
				hits, reloads := 0, 0
				for i := c; i < len(bodies); i += clients {
					if c == 0 && reloadEvery > 0 && issued+i >= nextReload {
						nextReload += reloadEvery
						t0 := time.Now()
						err := postReload(f)
						rec.add(1+c, parent, "serve.http_reload", t0, time.Now())
						reloads++
						if err != nil {
							myFail = append(myFail, err)
						}
					}
					t0 := time.Now()
					resp, err := postRecommend(f.client, url, bodies[i])
					t1 := time.Now()
					rec.add(1+c, parent, "serve.http_recommend", t0, t1)
					if err != nil {
						myFail = append(myFail, err)
						continue
					}
					ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
					myLat = append(myLat, ms)
					if resp.Cached {
						hits++
					} else {
						myMiss = append(myMiss, ms)
					}
				}
				mu.Lock()
				lat = append(lat, myLat...)
				fail = append(fail, myFail...)
				out.MissMs = append(out.MissMs, myMiss...)
				out.Hits += hits
				out.Reloads += reloads
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		issued += len(bodies)
		out.Requests += len(bodies)
		out.Failures = append(out.Failures, fail...)
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		out.P50ms = append(out.P50ms, percentile(lat, 0.50))
		out.P95ms = append(out.P95ms, percentile(lat, 0.95))
		out.P99ms = append(out.P99ms, percentile(lat, 0.99))
		out.QPS = append(out.QPS, float64(len(lat))/elapsed.Seconds())
	}
	return out
}

func postRecommend(client *http.Client, url string, body []byte) (*serve.RecommendResponse, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out serve.RecommendResponse
	decErr := json.NewDecoder(resp.Body).Decode(&out)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("recommend: status %d", resp.StatusCode)
	}
	if decErr != nil {
		return nil, fmt.Errorf("recommend: decode: %w", decErr)
	}
	return &out, nil
}

func postReload(f *frontend) error {
	resp, err := f.client.Post(f.ts.URL+"/reload", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload: status %d", resp.StatusCode)
	}
	return nil
}

// checkReplies sends fixedBaskets fixed baskets over HTTP and compares each
// reply with a direct Index.Recommend on the live index. One operation each.
func checkReplies(f *frontend, mix *basketMix) (checks int, failures []error) {
	ix := f.srv.Holder().Get()
	url := f.ts.URL + "/v1/recommend"
	for i := 0; i < fixedBaskets; i++ {
		basket := mix.next()
		checks++
		resp, err := postRecommend(f.client, url, marshalRequest(basket))
		if err != nil {
			failures = append(failures, err)
			continue
		}
		want := ix.Recommend(ix.Normalize(basket), recommendK)
		if want == nil {
			want = []serve.Recommendation{}
		}
		if !reflect.DeepEqual(resp.Recommendations, want) {
			failures = append(failures, fmt.Errorf("recommend: HTTP reply for basket %v differs from Index.Recommend", basket))
		}
	}
	return checks, failures
}

// emitLayer records the serve layer's metrics of a traced run: the direct,
// uncached cost of Index.Recommend over the very baskets that were requested,
// and what HTTP, JSON and the cache add or save on top of it.
func (s *serving) emitLayer(rec *recorder, ms *metricSet, f *frontend, modelPath string) error {
	ix := f.srv.Holder().Get()
	secs, _ := rec.timed("serve.recommend_direct", func() error {
		for _, b := range s.Baskets {
			ix.Recommend(ix.Normalize(b), recommendK)
		}
		return nil
	})
	directUs := secs * 1e6 / float64(len(s.Baskets))
	ms.set("serve.recommend_us", directUs)
	sort.Float64s(s.MissMs)
	ms.set("serve.http_overhead_us", percentile(s.MissMs, 0.50)*1e3-directUs)
	ms.setSamples("serve.http_p99_ms", s.P99ms)
	ms.set("serve.cache_hit_ratio", float64(s.Hits)/float64(s.Requests))
	ms.set("serve.rules", float64(len(ix.Rules())))

	var m *model.Model
	secs, err := rec.timed("model.read", func() (err error) {
		m, err = model.ReadFile(modelPath)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("model.read_s", secs)
	secs, err = rec.timed("serve.index_build", func() error {
		_, err := serve.NewIndex(m, "bench")
		return err
	})
	ms.set("serve.index_build_s", secs)
	return err
}
