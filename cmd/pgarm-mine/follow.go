package main

import (
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"pgarm/internal/gen"
	"pgarm/internal/item"
	"pgarm/internal/logx"
	"pgarm/internal/model"
	"pgarm/internal/stream"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// followOptions are the flags relevant to -follow.
type followOptions struct {
	logDir    string
	dataset   string
	out       string
	minsup    float64
	minconf   float64
	interest  float64
	maxK      int
	workers   int
	deltaTxns int
	poll      time.Duration
	idle      time.Duration
	maxDeltas int
	reloadURL string
}

// followStream tails a stream log and closes the streaming loop: accumulate a
// delta, run one FUP-style incremental checkpoint (internal/stream), write
// the snapshot with its carry-forward state, and nudge a serving process to
// hot-swap it. A restart resumes from the snapshot's recorded log offset, so
// the pipeline is crash-consistent end to end.
func followStream(logger *slog.Logger, o followOptions) {
	if o.logDir == "" {
		logx.Fatal(logger, "-follow requires -log")
	}
	if o.out == "" {
		logx.Fatal(logger, "-follow requires -o (the snapshot is the output)")
	}
	if o.deltaTxns <= 0 {
		logx.Fatal(logger, "-delta-txns must be positive")
	}
	params, err := gen.ByName(o.dataset)
	if err != nil {
		logx.Fatal(logger, "bad dataset", "err", err)
	}
	tax, err := taxonomy.Balanced(params.NumItems, params.Roots, params.Fanout)
	if err != nil {
		logx.Fatal(logger, "taxonomy", "err", err)
	}

	// Resume from the snapshot's carry-forward state when there is one.
	var prior *model.MiningState
	var minedOff stream.Offset
	if _, err := os.Stat(o.out); err == nil {
		r, err := model.OpenReader(o.out)
		if err != nil {
			logx.Fatal(logger, "resume: snapshot unreadable", "path", o.out, "err", err)
		}
		st, err := r.State()
		if err != nil {
			logx.Fatal(logger, "resume: snapshot state unreadable", "path", o.out, "err", err)
		}
		if st == nil {
			logger.Warn("snapshot has no mining state; re-mining from the log head", "path", o.out)
		} else {
			snapTax, err := r.Taxonomy()
			if err != nil {
				logx.Fatal(logger, "resume: snapshot taxonomy unreadable", "err", err)
			}
			if snapTax.Fingerprint() != tax.Fingerprint() {
				logx.Fatal(logger, "resume: snapshot taxonomy does not match -dataset",
					"snapshot", snapTax.Fingerprint(), "dataset", tax.Fingerprint())
			}
			prior = st
			minedOff = stream.Offset{Seg: st.LogSeg, Byte: st.LogByte, Txns: st.LogTxns}
			logger.Info("resuming from snapshot state", "path", o.out,
				"txns", st.LogTxns, "offset", minedOff)
		}
	}

	var reader *stream.Reader
	for {
		reader, err = stream.OpenReader(o.logDir)
		if err == nil {
			break
		}
		logger.Info("waiting for stream log", "dir", o.logDir)
		time.Sleep(o.poll)
	}
	logger.Info("following", "log", o.logDir, "from", minedOff,
		"delta_txns", o.deltaTxns, "minsup", o.minsup)

	curOff := minedOff
	var pending []txn.Transaction
	lastData := time.Now()
	checkpoints := 0
	for {
		newOff, err := reader.ReadFrom(curOff, func(t txn.Transaction) error {
			pending = append(pending, txn.Transaction{TID: t.TID, Items: item.Clone(t.Items)})
			return nil
		})
		if err != nil {
			logx.Fatal(logger, "log read failed", "offset", curOff, "err", err)
		}
		if newOff.Txns > curOff.Txns {
			lastData = time.Now()
		}
		curOff = newOff

		// Mine when a full delta has arrived, or the stream has gone idle
		// with a partial one (so tail data still becomes servable).
		if len(pending) < o.deltaTxns &&
			!(len(pending) > 0 && time.Since(lastData) >= o.idle) {
			time.Sleep(o.poll)
			continue
		}

		t0 := time.Now()
		prefix := reader.Prefix(minedOff)
		delta := txn.NewDB(pending)
		res, state, stats, err := stream.IncrementalMine(tax, prior, prefix, delta, stream.MineConfig{
			MinSupport: o.minsup,
			MaxK:       o.maxK,
			Workers:    o.workers,
		})
		if err != nil {
			logx.Fatal(logger, "incremental mine failed", "err", err)
		}
		if state.LogTxns != curOff.Txns {
			logx.Fatal(logger, "txn accounting mismatch", "state", state.LogTxns, "offset", curOff.Txns)
		}
		state.LogSeg, state.LogByte = curOff.Seg, curOff.Byte

		rs := deriveRules(logger, tax, &res.Levels, res.NumTxns, o.minconf, o.interest)
		m := &model.Model{
			Meta: model.Meta{
				Dataset:       o.dataset,
				Algorithm:     "Cumulate-FUP",
				Tool:          model.ToolVersion,
				NumTxns:       int64(res.NumTxns),
				MinSupport:    o.minsup,
				MinConfidence: o.minconf,
				CreatedUnix:   time.Now().Unix(),
			},
			Taxonomy: tax,
			Large:    res.Large,
			Rules:    rs,
			State:    state,
		}
		if err := model.WriteFile(o.out, m); err != nil {
			logx.Fatal(logger, "snapshot write failed", "path", o.out, "err", err)
		}
		checkpoints++
		recount := 0.0
		if stats.Candidates > 0 {
			recount = float64(stats.Recounted) / float64(stats.Candidates)
		}
		logger.Info("checkpoint", "n", checkpoints,
			"delta_txns", stats.DeltaTxns, "total_txns", stats.TotalTxns,
			"passes", stats.Passes, "candidates", stats.Candidates,
			"recounted", stats.Recounted, "recount_fraction", recount,
			"pruned", stats.Pruned, "prefix_scans", stats.PrefixScans,
			"itemsets", m.NumItemsets(), "rules", len(rs),
			"elapsed", time.Since(t0).Round(time.Millisecond))
		if o.reloadURL != "" {
			postReload(logger, o.reloadURL)
		}

		prior = state
		minedOff = curOff
		pending = nil
		lastData = time.Now()
		if o.maxDeltas > 0 && checkpoints >= o.maxDeltas {
			logger.Info("checkpoint limit reached", "checkpoints", checkpoints)
			return
		}
	}
}

// postReload asks a pgarm-serve instance to hot-swap the snapshot. Failures
// are logged, not fatal: the snapshot on disk is already durable and the next
// checkpoint (or the server's SIGHUP) retries.
func postReload(logger *slog.Logger, url string) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(url, "application/json", nil)
	if err != nil {
		logger.Warn("reload request failed", "url", url, "err", err)
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		logger.Warn("reload rejected", "url", url, "status", resp.StatusCode,
			"body", strings.TrimSpace(string(body)))
		return
	}
	logger.Info("serve reloaded", "url", url, "response", strings.TrimSpace(string(body)))
}
