package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/obs"
	"pgarm/internal/rules"
	"pgarm/internal/taxonomy"
)

// ServerOptions configure the HTTP surface.
type ServerOptions struct {
	// DefaultK is the recommendation count when a query omits k (default 10).
	DefaultK int
	// MaxK caps per-request k (default 100).
	MaxK int
	// ModelPath is the snapshot file POST /reload (and SIGHUP in
	// pgarm-serve) reloads when the request names no other path.
	ModelPath string
	// Registry receives request histograms, cache hit/miss counters and the
	// live snapshot gauges; nil disables metrics (handlers still work).
	Registry *obs.Registry
}

// Server is the HTTP face of a Holder: the pgarm-serve endpoints plus their
// observability, reusable by the load bench (bench/) through Handler().
type Server struct {
	holder *Holder
	cache  *Cache
	opts   ServerOptions

	reqSeconds  map[string]*obs.Histogram
	requests    map[string]*obs.Counter
	reqErrors   map[string]*obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	generation  *obs.Gauge
	reloads     *obs.Counter
	reloadFails *obs.Counter
}

// NewServer wires a server around the holder and (possibly nil) cache.
func NewServer(h *Holder, c *Cache, opts ServerOptions) *Server {
	if opts.DefaultK <= 0 {
		opts.DefaultK = 10
	}
	if opts.MaxK <= 0 {
		opts.MaxK = 100
	}
	s := &Server{
		holder:     h,
		cache:      c,
		opts:       opts,
		reqSeconds: make(map[string]*obs.Histogram),
		requests:   make(map[string]*obs.Counter),
		reqErrors:  make(map[string]*obs.Counter),
	}
	reg := opts.Registry
	for _, path := range []string{"/v1/recommend", "/v1/rules", "/reload", "/healthz"} {
		l := obs.L("path", path)
		s.reqSeconds[path] = reg.Histogram("pgarm_serve_request_seconds",
			"Request handling latency by endpoint.", nil, l)
		s.requests[path] = reg.Counter("pgarm_serve_requests_total",
			"Requests handled by endpoint.", l)
		s.reqErrors[path] = reg.Counter("pgarm_serve_request_errors_total",
			"Requests answered with a non-2xx status by endpoint.", l)
	}
	s.cacheHits = reg.Counter("pgarm_serve_cache_hits_total", "Recommendation cache hits.")
	s.cacheMisses = reg.Counter("pgarm_serve_cache_misses_total", "Recommendation cache misses.")
	s.generation = reg.Gauge("pgarm_serve_snapshot_generation", "Snapshot swaps since start (0 = none loaded).")
	s.reloads = reg.Counter("pgarm_serve_reloads_total", "Successful snapshot reloads.")
	s.reloadFails = reg.Counter("pgarm_serve_reload_failures_total", "Failed snapshot reloads (old snapshot kept serving).")
	reg.GaugeFunc("pgarm_serve_rules", "Rules in the live snapshot.", func() float64 {
		if ix := h.Get(); ix != nil {
			return float64(len(ix.Rules()))
		}
		return 0
	})
	reg.GaugeFunc("pgarm_serve_cache_entries", "Entries currently cached.", func() float64 {
		return float64(c.Len())
	})
	reg.GaugeFunc("pgarm_snapshot_age_seconds", "Age of the live snapshot (now - created; -1 = none loaded).", func() float64 {
		return snapshotAge(h.Get())
	})
	_, gen := h.Current()
	s.generation.Set(gen)
	return s
}

// Holder returns the server's holder (the bench swaps through it).
func (s *Server) Holder() *Holder { return s.holder }

// ReloadFile loads a snapshot file, builds its index off to the side and
// swaps it in. On any error the previous snapshot keeps serving.
func (s *Server) ReloadFile(path string) error {
	_, _, err := s.reload(path)
	return err
}

// reload is ReloadFile returning the index and generation its own swap
// published: a concurrent reload may already have replaced them in the
// holder. The live taxonomy carries over when the snapshot's hierarchy is
// the same.
func (s *Server) reload(path string) (*Index, int64, error) {
	if path == "" {
		path = s.opts.ModelPath
	}
	if path == "" {
		s.reloadFails.Inc()
		return nil, 0, fmt.Errorf("serve: no model path configured")
	}
	var live *taxonomy.Taxonomy
	if cur := s.holder.Get(); cur != nil {
		live = cur.tax
	}
	ix, err := loadFile(path, live)
	if err != nil {
		s.reloadFails.Inc()
		return nil, 0, err
	}
	gen := s.holder.Swap(ix)
	s.generation.Set(gen)
	s.reloads.Inc()
	return ix, gen, nil
}

// Handler returns the full endpoint mux: POST /v1/recommend, GET /v1/rules,
// POST /reload, GET /healthz, GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/recommend", s.instrument("/v1/recommend", s.handleRecommend))
	mux.HandleFunc("/v1/rules", s.instrument("/v1/rules", s.handleRules))
	mux.HandleFunc("/reload", s.instrument("/reload", s.handleReload))
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.opts.Registry.WritePrometheus(w)
	})
	return mux
}

// statusWriter records the status code for the error counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-endpoint histogram and counters.
func (s *Server) instrument(path string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r)
		s.reqSeconds[path].Observe(time.Since(start).Seconds())
		s.requests[path].Inc()
		if sw.code >= 300 {
			s.reqErrors[path].Inc()
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// RecommendRequest is the POST /v1/recommend body.
type RecommendRequest struct {
	// Basket is the query basket; order and duplicates are irrelevant.
	Basket []item.Item `json:"basket"`
	// K bounds the number of recommendations (0 = server default).
	K int `json:"k"`
	// NoCache bypasses the result cache for this request (the load bench's
	// cache-off arm; also handy when debugging).
	NoCache bool `json:"no_cache"`
}

// RecommendResponse is the POST /v1/recommend answer.
type RecommendResponse struct {
	Model           string           `json:"model"`
	Generation      int64            `json:"generation"`
	Basket          []item.Item      `json:"basket"` // normalized form used for the query
	Recommendations []Recommendation `json:"recommendations"`
	Cached          bool             `json:"cached"`
}

// cacheKey builds the cache key for a normalized basket query: snapshot
// identity (version + generation) and k, then the canonical basket bytes.
func cacheKey(ix *Index, gen int64, k int, basket []item.Item) string {
	return ix.Version() + "|" + strconv.FormatInt(gen, 10) + "|" + strconv.Itoa(k) + "|" + itemset.Key(basket)
}

// maxRecommendBody bounds a POST /v1/recommend body; a larger one gets 413.
// A basket of 100k item ids fits with room to spare.
const maxRecommendBody = 1 << 20

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req RecommendRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRecommendBody)).Decode(&req); err != nil {
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxRecommendBody)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Basket) == 0 {
		writeError(w, http.StatusBadRequest, "empty basket")
		return
	}
	k := req.K
	if k <= 0 {
		k = s.opts.DefaultK
	}
	if k > s.opts.MaxK {
		k = s.opts.MaxK
	}
	// Pin the snapshot once; the whole request is answered by this index
	// even if a reload swaps the holder mid-flight.
	ix, gen := s.holder.Current()
	if ix == nil {
		writeError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	basket := ix.Normalize(req.Basket)
	resp := RecommendResponse{Model: ix.Version(), Generation: gen, Basket: basket}

	key := ""
	if s.cache != nil && !req.NoCache {
		key = cacheKey(ix, gen, k, basket)
		if recs, ok := s.cache.Get(key); ok {
			s.cacheHits.Inc()
			resp.Recommendations = recs
			resp.Cached = true
			writeJSON(w, http.StatusOK, &resp)
			return
		}
		s.cacheMisses.Inc()
	}
	recs := ix.Recommend(basket, k)
	if recs == nil {
		recs = []Recommendation{}
	}
	if key != "" {
		s.cache.Put(key, recs)
	}
	resp.Recommendations = recs
	writeJSON(w, http.StatusOK, &resp)
}

// ruleJSON is one rule of the GET /v1/rules listing.
type ruleJSON struct {
	ID         int         `json:"id"`
	Antecedent []item.Item `json:"antecedent"`
	Consequent []item.Item `json:"consequent"`
	Support    float64     `json:"support"`
	Confidence float64     `json:"confidence"`
	Count      int64       `json:"count"`
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	ix := s.holder.Get()
	if ix == nil {
		writeError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	q := r.URL.Query()
	limit, offset := 100, 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad offset %q", v)
			return
		}
		offset = n
	}

	all := ix.Rules()
	pick := func(id int) rules.Rule { return all[id] }
	var ids []int
	if v := q.Get("root"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad root %q", v)
			return
		}
		for _, id := range ix.RulesByRoot(item.Item(n)) {
			ids = append(ids, int(id))
		}
	} else {
		ids = make([]int, len(all))
		for i := range ids {
			ids[i] = i
		}
	}

	total := len(ids)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	out := struct {
		Model string     `json:"model"`
		Total int        `json:"total"`
		Rules []ruleJSON `json:"rules"`
	}{Model: ix.Version(), Total: total, Rules: []ruleJSON{}}
	for _, id := range ids[offset:end] {
		r := pick(id)
		out.Rules = append(out.Rules, ruleJSON{
			ID:         id,
			Antecedent: r.Antecedent,
			Consequent: r.Consequent,
			Support:    r.Support,
			Confidence: r.Confidence,
			Count:      r.Count,
		})
	}
	writeJSON(w, http.StatusOK, &out)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	path := r.URL.Query().Get("model")
	ix, gen, err := s.reload(path)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reload failed (previous snapshot still serving): %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"model":      ix.Version(),
		"generation": gen,
		"rules":      len(ix.Rules()),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ix, gen := s.holder.Current()
	if ix == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": false, "error": "no model loaded"})
		return
	}
	meta := ix.Meta()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         true,
		"model":      ix.Version(),
		"checksum":   ix.Version(),
		"generation": gen,
		"rules":      len(ix.Rules()),
		"items":      ix.Taxonomy().NumItems(),
		"dataset":    meta.Dataset,
		"algorithm":  meta.Algorithm,
		"created":    meta.CreatedUnix,
		// age_seconds is the staleness a streaming follower keeps bounded:
		// now minus the snapshot's creation stamp (clamped at clock skew).
		"age_seconds": snapshotAge(ix),
	})
}

// snapshotAge returns the snapshot's age in seconds, or -1 when no model is
// loaded (ix nil). Negative clock skew clamps to 0.
func snapshotAge(ix *Index) float64 {
	if ix == nil {
		return -1
	}
	age := time.Since(time.Unix(ix.Meta().CreatedUnix, 0)).Seconds()
	if age < 0 {
		age = 0
	}
	return age
}
