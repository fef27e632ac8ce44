package obs

import (
	"encoding/json"
	"log/slog"
	"os"
)

// WriteTraceFile writes tr's Chrome trace_event JSON to path — the one -trace
// writer of every binary. It warns through log when the tracer's buffer cap
// discarded spans (the file is then truncated) and logs the span count.
func WriteTraceFile(path string, tr *Tracer, log *slog.Logger) error {
	if d := tr.Dropped(); d > 0 {
		log.Warn("tracer dropped spans; trace file is truncated", "dropped", d)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Info("wrote trace", "spans", tr.Spans(), "path", path)
	return nil
}

// WriteJSONFile writes v to path as indented JSON — the one -json report
// writer of every binary.
func WriteJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
