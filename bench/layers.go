package main

import (
	"fmt"

	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
	"pgarm/internal/wire"
)

const fabricMessage = 4 << 10 // the driver's default send-batching threshold

// microphases times single layers in isolation, over the run's real data:
// the transactions, and the large itemsets the run just mined. They run only
// in the traced run, so they never pollute an end-to-end number. parts may be
// empty (stream-serve has no partition files).
func microphases(rec *recorder, ms *metricSet, tax *taxonomy.Taxonomy, db *txn.DB, parts []txn.Scanner, large [][]itemset.Counted, b budget) error {
	// txn: one no-op scan of every partition, the pure decode cost.
	if len(parts) > 0 {
		secs, err := rec.timed("txn.scan", func() error {
			for _, p := range parts {
				if err := p.Scan(func(txn.Transaction) error { return nil }); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		ms.set("txn.scan_s", secs)
	}

	// taxonomy: ancestor-closure extension of every transaction, once.
	extended := make([][]item.Item, 0, db.Len())
	closure := make([]int64, tax.NumItems())
	itemsOut := 0
	secs, _ := rec.timed("taxonomy.extend", func() error {
		return db.Scan(func(t txn.Transaction) error {
			ext := tax.ExtendTransaction(nil, t.Items)
			extended = append(extended, ext)
			itemsOut += len(ext)
			return nil
		})
	})
	ms.set("taxonomy.extend_s", secs)
	ms.set("taxonomy.items_out", float64(itemsOut))
	for _, ext := range extended {
		for _, x := range ext {
			closure[x]++
		}
	}

	if err := candidatePhases(rec, ms, tax, db, parts, large); err != nil {
		return err
	}
	if err := wirePhase(rec, ms, extended, closure, large); err != nil {
		return err
	}
	for _, f := range []struct {
		kind   driver.FabricKind
		metric string
	}{{driver.FabricChan, "cluster.chan_mb_per_s"}, {driver.FabricTCP, "cluster.tcp_mb_per_s"}} {
		mbps, err := fabricPhase(rec, f.kind, b.FabricBytes)
		if err != nil {
			return err
		}
		ms.set(f.metric, mbps)
	}
	return nil
}

func sets(level []itemset.Counted) [][]item.Item {
	out := make([][]item.Item, len(level))
	for i, c := range level {
		out[i] = c.Items
	}
	return out
}

// candidatePhases regenerates C2 and C3 from the run's L1 and L2 (cumulate),
// then builds the C2 index and probes it over one partition (itemset, through
// the count-support kernel every candidate engine shares).
func candidatePhases(rec *recorder, ms *metricSet, tax *taxonomy.Taxonomy, db *txn.DB, parts []txn.Scanner, large [][]itemset.Counted) error {
	if len(large) == 0 {
		return nil
	}
	var c2, c3 [][]item.Item
	secs, _ := rec.timed("cumulate.generate", func() error {
		c2 = cumulate.GenerateCandidatesN(tax, sets(large[0]), 2, workers, nil)
		if len(large) > 1 {
			c3 = cumulate.GenerateCandidatesN(tax, sets(large[1]), 3, workers, nil)
		}
		return nil
	})
	ms.set("cumulate.generate_s", secs)
	ms.set("cumulate.candidates", float64(len(c2)+len(c3)))
	if len(c2) == 0 {
		return nil
	}

	var index *itemset.Index
	secs, _ = rec.timed("itemset.build_index", func() error {
		index = itemset.BuildIndex(c2)
		return nil
	})
	ms.set("itemset.build_index_s", secs)

	largeFlags := make([]bool, tax.NumItems())
	for _, c := range large[0] {
		largeFlags[c.Items[0]] = true
	}
	member := cumulate.KeepSet(tax, c2)
	view := taxonomy.NewView(tax, largeFlags, member)
	var src txn.Scanner = db
	if len(parts) > 0 {
		src = parts[0]
	}
	wstats := make([]metrics.NodeStats, 1)
	secs, err := rec.timed("itemset.probe", func() error {
		return driver.CountTable(view, member, index, 2, src, driver.WorkerVectors(1, index.Len()), driver.CountOptions{Workers: 1, WStats: wstats})
	})
	if err != nil {
		return err
	}
	ms.set("itemset.probe_s", secs)
	ms.set("itemset.probes", float64(wstats[0].Probes))
	return nil
}

// wirePhase encodes and decodes the run's real payload shapes: the items of
// every extended transaction (what count-support ships), the pass-1 count
// vector (what the reduce ships) and every L_k (what the barrier ships).
func wirePhase(rec *recorder, ms *metricSet, extended [][]item.Item, closure []int64, large [][]itemset.Counted) error {
	var txnBuf, countBuf []byte
	levelBufs := make([][]byte, len(large))
	secs, _ := rec.timed("wire.encode", func() error {
		for _, ext := range extended {
			txnBuf = wire.AppendItems(txnBuf, ext)
		}
		countBuf = wire.AppendSparseCounts(nil, closure)
		for k, level := range large {
			counts := make([]int64, len(level))
			for i, c := range level {
				counts[i] = c.Count
			}
			levelBufs[k] = wire.AppendCounted(nil, sets(level), counts)
		}
		return nil
	})
	ms.set("wire.encode_s", secs)
	total := len(txnBuf) + len(countBuf)
	for _, b := range levelBufs {
		total += len(b)
	}
	ms.set("wire.bytes", float64(total))

	secs, err := rec.timed("wire.decode", func() error {
		var scratch []item.Item
		for b, n := txnBuf, 0; len(b) > 0; b = b[n:] {
			var err error
			if scratch, n, err = wire.Items(b, scratch[:0]); err != nil {
				return err
			}
		}
		if _, _, err := wire.SparseCounts(countBuf); err != nil {
			return err
		}
		for _, b := range levelBufs {
			if _, _, _, err := wire.Counted(b); err != nil {
				return err
			}
		}
		return nil
	})
	ms.set("wire.decode_s", secs)
	return err
}

// fabricPhase ships total bytes as 4 KB messages from endpoint 0 to endpoint
// 1 of a fresh two-node fabric and returns the throughput in MB/s: the fabric
// alone, with no mining on either side.
func fabricPhase(rec *recorder, kind driver.FabricKind, total int) (float64, error) {
	fabric, err := driver.NewFabric(kind, nodes, 0)
	if err != nil {
		return 0, err
	}
	defer fabric.Close()
	name := "cluster.ship_chan"
	if kind == driver.FabricTCP {
		name = "cluster.ship_tcp"
	}
	msgs := total / fabricMessage
	payload := make([]byte, fabricMessage)
	secs, err := rec.timed(name, func() error {
		received := make(chan error, 1)
		go func() {
			inbox := fabric.Endpoint(1).Inbox()
			for i := 0; i < msgs; i++ {
				if _, ok := <-inbox; !ok {
					received <- fmt.Errorf("fabric closed after %d of %d messages: %v", i, msgs, fabric.Endpoint(1).Err())
					return
				}
			}
			received <- nil
		}()
		src := fabric.Endpoint(0)
		for i := 0; i < msgs; i++ {
			if err := src.Send(1, driver.KData, payload); err != nil {
				// Closing the fabric unblocks the receiver.
				fabric.Close()
				<-received
				return err
			}
		}
		return <-received
	})
	if err != nil {
		return 0, err
	}
	return float64(msgs*fabricMessage) / 1e6 / secs, nil
}
