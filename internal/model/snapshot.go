package model

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"os"

	"pgarm/internal/itemset"
	"pgarm/internal/rules"
	"pgarm/internal/taxonomy"
	"pgarm/internal/wire"
)

// Snapshot layout:
//
//	magic    [8]byte  "pgarmmdl"
//	version  uint32   little-endian FormatVersion
//	bodyLen  uint64   little-endian body length in bytes
//	checksum uint64   little-endian CRC-64/ECMA of the body
//	body     [bodyLen]byte: sections, each (id uvarint, len uvarint, payload)
//
// The fixed-width header lets a reader validate completeness and integrity
// with one stat-sized read before touching the body; the sectioned body lets
// it locate and decode only what it needs (a serving process that only wants
// rules never decodes the itemset levels).
var magic = [8]byte{'p', 'g', 'a', 'r', 'm', 'm', 'd', 'l'}

const headerLen = 8 + 4 + 8 + 8

var crcTable = crc64.MakeTable(crc64.ECMA)

// Checksum returns the CRC-64/ECMA of a snapshot body — exposed so callers
// can label a loaded model (serve uses it as the snapshot version id).
func Checksum(body []byte) uint64 { return crc64.Checksum(body, crcTable) }

// Encode renders the model as a complete snapshot (header + body).
func Encode(m *Model) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	body := make([]byte, 0, 1<<16)
	section := func(id uint64, payload []byte) {
		body = wire.AppendUvarint(body, id)
		body = wire.AppendUvarint(body, uint64(len(payload)))
		body = append(body, payload...)
	}
	section(secMeta, appendMeta(nil, m.Meta))
	section(secTaxonomy, appendTaxonomy(nil, m.Taxonomy))
	section(secItemsets, appendLevels(nil, m.Large))
	section(secRules, appendRules(nil, m.Rules))
	if m.State != nil {
		section(secState, appendState(nil, m.State))
	}

	out := make([]byte, 0, headerLen+len(body))
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = binary.LittleEndian.AppendUint64(out, Checksum(body))
	return append(out, body...), nil
}

// Write encodes the model and writes the snapshot to w.
func Write(w io.Writer, m *Model) error {
	b, err := Encode(m)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteFile writes the snapshot atomically: encode, write to a temp file in
// the destination directory, fsync, rename. A serving process reloading the
// path therefore never observes a half-written snapshot.
func WriteFile(path string, m *Model) error {
	b, err := Encode(m)
	if err != nil {
		return err
	}
	dir, base := splitPath(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func splitPath(path string) (dir, base string) {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i+1], path[i+1:]
		}
	}
	return ".", path
}

// Reader is a lazily decoding snapshot reader. NewReader validates the
// header, the body length and the checksum up front; the section payloads
// are decoded on first use and cached. A Reader is safe for use by one
// goroutine (build the Model once, then share the immutable result).
type Reader struct {
	meta     Meta
	checksum uint64
	sections map[uint64][]byte

	tax   *taxonomy.Taxonomy
	large [][]itemset.Counted
	rules []rules.Rule
	state *MiningState
	// decoded flags distinguish "not yet decoded" from "decoded empty".
	taxDone, largeDone, rulesDone, stateDone bool
}

// NewReader validates a complete snapshot held in memory and indexes its
// sections. data must remain unmodified for the Reader's lifetime.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("model: snapshot truncated: %d bytes < %d-byte header", len(data), headerLen)
	}
	if string(data[:8]) != string(magic[:]) {
		return nil, fmt.Errorf("model: bad magic %q (not a pgarm model snapshot)", data[:8])
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version != FormatVersion {
		return nil, fmt.Errorf("model: unsupported format version %d (reader supports %d)", version, FormatVersion)
	}
	bodyLen := binary.LittleEndian.Uint64(data[12:20])
	sum := binary.LittleEndian.Uint64(data[20:28])
	body := data[headerLen:]
	if uint64(len(body)) < bodyLen {
		return nil, fmt.Errorf("model: snapshot truncated: body %d bytes < declared %d", len(body), bodyLen)
	}
	body = body[:bodyLen]
	if got := Checksum(body); got != sum {
		return nil, fmt.Errorf("model: checksum mismatch: computed %016x, header says %016x", got, sum)
	}

	r := &Reader{checksum: sum, sections: make(map[uint64][]byte)}
	d := wire.NewDec(body)
	for d.More() {
		// Last section of a given id wins; unknown ids are retained but
		// ignored, so future writers can append sections compatibly.
		id := d.U64()
		r.sections[id] = d.Bytes()
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("model: corrupt section table: %v", err)
	}
	metaSec, ok := r.sections[secMeta]
	if !ok {
		return nil, fmt.Errorf("model: snapshot has no meta section")
	}
	meta, err := readMeta(metaSec)
	if err != nil {
		return nil, fmt.Errorf("model: corrupt meta section: %v", err)
	}
	r.meta = meta
	return r, nil
}

// Meta returns the generation metadata (decoded eagerly by NewReader).
func (r *Reader) Meta() Meta { return r.meta }

// Checksum returns the body CRC from the header — a stable identity for this
// exact snapshot.
func (r *Reader) Checksum() uint64 { return r.checksum }

// Taxonomy decodes (once) and returns the hierarchy.
func (r *Reader) Taxonomy() (*taxonomy.Taxonomy, error) {
	if !r.taxDone {
		sec, ok := r.sections[secTaxonomy]
		if !ok {
			return nil, fmt.Errorf("model: snapshot has no taxonomy section")
		}
		t, err := readTaxonomy(sec)
		if err != nil {
			return nil, fmt.Errorf("model: corrupt taxonomy section: %v", err)
		}
		r.tax = t
		r.taxDone = true
	}
	return r.tax, nil
}

// Itemsets decodes (once) and returns the per-level large itemsets.
func (r *Reader) Itemsets() ([][]itemset.Counted, error) {
	if !r.largeDone {
		sec, ok := r.sections[secItemsets]
		if !ok {
			return nil, fmt.Errorf("model: snapshot has no itemsets section")
		}
		large, err := readItemsets(sec)
		if err != nil {
			return nil, fmt.Errorf("model: corrupt itemsets section: %v", err)
		}
		r.large = large
		r.largeDone = true
	}
	return r.large, nil
}

// Rules decodes (once) and returns the derived rules.
func (r *Reader) Rules() ([]rules.Rule, error) {
	if !r.rulesDone {
		sec, ok := r.sections[secRules]
		if !ok {
			return nil, fmt.Errorf("model: snapshot has no rules section")
		}
		rs, err := readRules(sec)
		if err != nil {
			return nil, fmt.Errorf("model: corrupt rules section: %v", err)
		}
		r.rules = rs
		r.rulesDone = true
	}
	return r.rules, nil
}

// Model decodes every section and returns the complete model, re-validated.
func (r *Reader) Model() (*Model, error) {
	tax, err := r.Taxonomy()
	if err != nil {
		return nil, err
	}
	large, err := r.Itemsets()
	if err != nil {
		return nil, err
	}
	rs, err := r.Rules()
	if err != nil {
		return nil, err
	}
	st, err := r.State()
	if err != nil {
		return nil, err
	}
	m := &Model{Meta: r.meta, Taxonomy: tax, Large: large, Rules: rs, State: st}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ReadFile reads and decodes a snapshot file.
func ReadFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sr, err := NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m, err := sr.Model()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// OpenReader reads a snapshot file and returns its lazy reader.
func OpenReader(path string) (*Reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
