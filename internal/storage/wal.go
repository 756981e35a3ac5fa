package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"github.com/odbis/odbis/internal/fault"
)

const walFile = "odbis.wal"

// Record types in the write-ahead log.
const (
	recCreateTable byte = 'T'
	recDropTable   byte = 'D'
	recCreateIndex byte = 'I'
	recDropIndex   byte = 'X'
	recSequence    byte = 'S'
	recCommit      byte = 'C'
	// recEpoch stamps the WAL with the checkpoint epoch of the snapshot
	// it extends. It is always the first record of a reset WAL; replay
	// discards a WAL whose epoch does not match the loaded snapshot
	// (a crash between snapshot publish and WAL reset would otherwise
	// re-apply records the snapshot already contains).
	recEpoch byte = 'E'
)

// wal is an append-only redo log. Records are framed as
//
//	[uint32 payload length][payload][uint32 CRC-32 of payload]
//
// where the payload starts with a record-type byte. A torn final record
// (short frame or CRC mismatch) marks the end of the recoverable log and
// is truncated on the next append.
type wal struct {
	mu   sync.Mutex
	f    *os.File
	sync SyncMode
	buf  bytes.Buffer
	// failed latches the first physical write/sync error. Once set,
	// every further append fails fast with ErrWALFailed: the on-disk
	// tail is suspect, and acknowledging commits that may not survive a
	// restart would silently diverge memory from disk. A successful
	// checkpoint resets the WAL from known-good memory state and clears
	// the latch.
	failed error
}

func openWAL(path string, mode SyncMode) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	return &wal{f: f, sync: mode}, nil
}

func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// append frames and writes one record built by fn, honoring the sync
// mode. On success it returns the frame size in bytes so callers can
// attribute durable write volume.
func (w *wal) append(fn func(enc *encoder)) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, ErrClosed
	}
	if w.failed != nil {
		return 0, fmt.Errorf("%w (first failure: %v)", ErrWALFailed, w.failed)
	}
	w.buf.Reset()
	enc := newEncoder(&w.buf)
	fn(enc)
	if err := enc.flush(); err != nil {
		return 0, err
	}
	// Nothing has reached the file yet: a failure up to here (including
	// the armed fault below) aborts the record cleanly and the WAL stays
	// usable.
	if err := fault.Point(fault.StorageWALAppend); err != nil {
		return 0, err
	}
	payload := w.buf.Bytes()
	var frame [8]byte
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	// Seek to end: recovery may have left the offset mid-file after a torn
	// record.
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return 0, err
	}
	if _, err := w.f.Write(frame[:4]); err != nil {
		return 0, w.fail(err)
	}
	// The torn-write window: the frame header is on disk, the payload is
	// not. A crash armed here leaves exactly the partial frame recovery
	// must truncate.
	if err := fault.Point(fault.StorageWALAppendMid); err != nil {
		return 0, w.fail(err)
	}
	if _, err := w.f.Write(payload); err != nil {
		return 0, w.fail(err)
	}
	if _, err := w.f.Write(frame[4:]); err != nil {
		return 0, w.fail(err)
	}
	if w.sync == SyncFull {
		if err := fault.Point(fault.StorageWALSync); err != nil {
			return 0, w.fail(err)
		}
		if err := w.f.Sync(); err != nil {
			return 0, w.fail(err)
		}
		mWALSyncs.Inc()
	}
	n := len(payload) + 8
	mWALAppends.Inc()
	mWALBytes.Add(int64(n))
	return n, nil
}

// fail latches a physical write/sync error (caller holds w.mu).
func (w *wal) fail(err error) error {
	if w.failed == nil {
		w.failed = err
		mWALLatchTrips.Inc()
	}
	return err
}

// reset truncates the WAL, stamps it with the checkpoint epoch and
// fsyncs, clearing any latched failure: after a reset the on-disk log is
// empty and provably in sync with memory again. On error the WAL is
// latched failed — an un-reset WAL next to a newer snapshot must not
// accept appends the next recovery would discard as stale.
func (w *wal) reset(epoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return ErrClosed
	}
	if err := w.f.Truncate(0); err != nil {
		return w.fail(fmt.Errorf("storage: truncate wal: %w", err))
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return w.fail(err)
	}
	w.buf.Reset()
	enc := newEncoder(&w.buf)
	enc.byte(recEpoch)
	enc.uvarint(epoch)
	if err := enc.flush(); err != nil {
		return err
	}
	payload := w.buf.Bytes()
	var frame [8]byte
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(frame[:4]); err != nil {
		return w.fail(err)
	}
	if _, err := w.f.Write(payload); err != nil {
		return w.fail(err)
	}
	if _, err := w.f.Write(frame[4:]); err != nil {
		return w.fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	w.failed = nil
	return nil
}

func (w *wal) logCreateTable(s *Schema) error {
	_, err := w.append(func(enc *encoder) {
		enc.byte(recCreateTable)
		enc.schema(s)
	})
	return err
}

func (w *wal) logDropTable(name string) error {
	_, err := w.append(func(enc *encoder) {
		enc.byte(recDropTable)
		enc.str(name)
	})
	return err
}

func (w *wal) logCreateIndex(info IndexInfo) error {
	_, err := w.append(func(enc *encoder) {
		enc.byte(recCreateIndex)
		encodeIndexInfo(enc, info)
	})
	return err
}

func encodeIndexInfo(enc *encoder, info IndexInfo) {
	enc.str(info.Table)
	enc.str(info.Name)
	enc.uvarint(uint64(len(info.Columns)))
	for _, c := range info.Columns {
		enc.str(c)
	}
	if info.Unique {
		enc.byte(1)
	} else {
		enc.byte(0)
	}
	enc.byte(byte(info.Kind))
}

func decodeIndexInfo(dec *decoder) IndexInfo {
	var info IndexInfo
	info.Table = dec.str()
	info.Name = dec.str()
	n := dec.uvarint()
	if dec.err != nil || n > 1<<12 {
		dec.fail(fmt.Errorf("storage: corrupt index info"))
		return info
	}
	info.Columns = make([]string, n)
	for i := range info.Columns {
		info.Columns[i] = dec.str()
	}
	info.Unique = dec.byte() == 1
	info.Kind = IndexKind(dec.byte())
	return info
}

func (w *wal) logDropIndex(table, name string) error {
	_, err := w.append(func(enc *encoder) {
		enc.byte(recDropIndex)
		enc.str(table)
		enc.str(name)
	})
	return err
}

func (w *wal) logSequence(name string, v int64) error {
	_, err := w.append(func(enc *encoder) {
		enc.byte(recSequence)
		enc.str(name)
		enc.varint(v)
	})
	return err
}

// logTx appends one commit record, returning its framed size for
// per-tenant bytes-written attribution.
func (w *wal) logTx(txid uint64, ops []txOp) (int, error) {
	return w.append(func(enc *encoder) { encodeTxFrame(enc, txid, ops) })
}

// errTornRecord marks the recoverable end of the log during replay.
var errTornRecord = errors.New("storage: torn wal record")

// replayWAL applies every intact record from the WAL. A torn tail is
// truncated so future appends produce a clean log. A WAL whose epoch
// stamp disagrees with the loaded snapshot is discarded whole: it was
// written against a different snapshot baseline (a crash landed between
// snapshot publish and WAL reset), so its records are either already in
// the snapshot or inconsistent with it — replaying them would duplicate
// rows or resurrect dropped tables.
func (e *Engine) replayWAL() error {
	w := e.wal
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var goodEnd int64
	var maxTx, maxRID uint64
	// A WAL with no epoch record is a fresh, never-checkpointed log
	// (epoch 0): reset always stamps one.
	walEpoch := uint64(0)
	first := true
	r := io.Reader(w.f)
	for {
		payload, n, err := readFrame(r)
		if err == io.EOF {
			break
		}
		if errors.Is(err, errTornRecord) {
			break
		}
		if err != nil {
			return err
		}
		if first {
			first = false
			if ep, ok := decodeEpoch(payload); ok {
				walEpoch = ep
				goodEnd += int64(n)
				if walEpoch != e.epoch {
					break
				}
				continue
			}
		}
		if walEpoch != e.epoch {
			break
		}
		tx, rid, aerr := e.applyWALRecord(payload)
		if aerr != nil {
			return aerr
		}
		if tx > maxTx {
			maxTx = tx
		}
		if rid > maxRID {
			maxRID = rid
		}
		goodEnd += int64(n)
	}
	// Mismatched (or missing) epoch after a checkpoint: discard the
	// stale log and restamp. This also covers a crash inside reset
	// itself (truncated but not yet stamped).
	if walEpoch != e.epoch {
		return w.reset(e.epoch)
	}
	if err := w.f.Truncate(goodEnd); err != nil {
		return fmt.Errorf("storage: truncate torn wal: %w", err)
	}
	if maxTx >= e.nextTxID.Load() {
		e.nextTxID.Store(maxTx + 1)
	}
	if maxRID >= e.nextRID.Load() {
		e.nextRID.Store(maxRID + 1)
	}
	return nil
}

// decodeEpoch reports whether payload is an epoch record and its value.
func decodeEpoch(payload []byte) (uint64, bool) {
	if len(payload) == 0 || payload[0] != recEpoch {
		return 0, false
	}
	dec := newDecoder(bytes.NewReader(payload[1:]))
	ep := dec.uvarint()
	if dec.err != nil {
		return 0, false
	}
	return ep, true
}

// readFrame reads one framed record, returning the payload and the total
// frame size consumed.
func readFrame(r io.Reader) ([]byte, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, errTornRecord
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxBlob {
		return nil, 0, errTornRecord
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, errTornRecord
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, 0, errTornRecord
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(crcBuf[:]) {
		return nil, 0, errTornRecord
	}
	return payload, int(n) + 8, nil
}

// applyWALRecord applies one record to in-memory state during recovery.
// It returns the highest transaction id and RID referenced.
func (e *Engine) applyWALRecord(payload []byte) (maxTx, maxRID uint64, err error) {
	dec := newDecoder(bytes.NewReader(payload))
	switch typ := dec.byte(); typ {
	case recCreateTable:
		s := dec.schema()
		if dec.err != nil {
			return 0, 0, dec.err
		}
		// Recreate directly (not via CreateTable: no re-logging).
		if err := s.Validate(); err != nil {
			return 0, 0, err
		}
		t := &table{schema: s, byRID: make(map[RID]rowID), indexes: make(map[string]*index)}
		if len(s.PrimaryKey) > 0 {
			pk := e.buildIndex(t, IndexInfo{
				Name:    s.Name + "_pkey",
				Table:   s.Name,
				Columns: append([]string(nil), s.PrimaryKey...),
				Unique:  true,
				Kind:    IndexBTree,
			})
			t.pkIndex = pk
			t.indexes[lowerName(pk.info.Name)] = pk
		}
		e.tables[lowerName(s.Name)] = t
	case recDropTable:
		delete(e.tables, lowerName(dec.str()))
	case recCreateIndex:
		info := decodeIndexInfo(dec)
		if dec.err != nil {
			return 0, 0, dec.err
		}
		if t, ok := e.tables[lowerName(info.Table)]; ok {
			// Replay is single-threaded, but take the lock anyway so every
			// buildIndex call site shares CreateIndex's discipline (and the
			// static race tier can prove it).
			t.mu.Lock()
			ix := e.buildIndex(t, info)
			t.indexes[lowerName(info.Name)] = ix
			t.mu.Unlock()
		}
	case recDropIndex:
		tbl, name := dec.str(), dec.str()
		if t, ok := e.tables[lowerName(tbl)]; ok {
			delete(t.indexes, lowerName(name))
		}
	case recSequence:
		name := dec.str()
		v := dec.varint()
		if dec.err == nil {
			e.setSequence(name, v)
		}
	case recCommit:
		txid := dec.uvarint()
		nops := dec.uvarint()
		if dec.err != nil || nops > maxBlob {
			return 0, 0, fmt.Errorf("storage: corrupt commit record")
		}
		for i := uint64(0); i < nops; i++ {
			kind := txOpKind(dec.byte())
			tableName := dec.str()
			rid := RID(dec.uvarint())
			if uint64(rid) > maxRID {
				maxRID = uint64(rid)
			}
			t, ok := e.tables[lowerName(tableName)]
			switch kind {
			case opInsert:
				row := dec.row()
				if dec.err != nil {
					return 0, 0, dec.err
				}
				if !ok {
					continue // table was dropped later in the log
				}
				slot := rowID(len(t.versions))
				t.versions = append(t.versions, version{rid: rid, row: row})
				t.byRID[rid] = slot
				for _, ix := range t.indexes {
					ix.insert(ix.keyFor(row), slot)
				}
				t.live++
			case opDelete:
				if !ok {
					continue
				}
				if slot, exists := t.byRID[rid]; exists && t.versions[slot].xmax == 0 {
					t.versions[slot].xmax = txid
					t.live--
				}
			default:
				return 0, 0, fmt.Errorf("storage: corrupt op kind %d", kind)
			}
		}
		if txid > maxTx {
			maxTx = txid
		}
	default:
		return 0, 0, fmt.Errorf("storage: unknown wal record type %q", typ)
	}
	return maxTx, maxRID, dec.err
}
