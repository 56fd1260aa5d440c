package main

import (
	"fmt"
	"time"

	"github.com/prismdb/prismdb"
)

// recoveryCheck is the outcome of reopening the durable workload's data
// directory.
type recoveryCheck struct {
	checked, failed int64
	reopen          time.Duration
}

// recoverySample is how many keys the reopen check reads back.
const recoverySample = 10000

// reopenAndVerify closes the engine, reopens its data directory, and checks
// that sampled keys hold the last value some connection was acknowledged
// for: a key's final value is one connection's newest write (an older one
// cannot outlive it), or the preloaded value if nobody wrote the key.
func (st *stack) reopenAndVerify() (recoveryCheck, error) {
	last := make([][]uint32, len(st.clients))
	for i, c := range st.clients {
		last[i] = c.sent
	}
	if err := st.stopServing(); err != nil {
		return recoveryCheck{}, fmt.Errorf("shutdown: %w", err)
	}
	if err := st.db.Close(); err != nil {
		return recoveryCheck{}, fmt.Errorf("close: %w", err)
	}
	start := time.Now()
	opts, db, err := openEngine(st.spec.engineOptions(st.dataDir), true)
	if err != nil {
		st.db = nil
		return recoveryCheck{}, fmt.Errorf("reopen: %w", err)
	}
	st.opts, st.db = opts, db
	rc := recoveryCheck{reopen: time.Since(start)}

	var firstFailure string
	key := make([]byte, 0, keyLen)
	var buf, scratch []byte
	step := st.spec.keys / recoverySample
	if step < 1 {
		step = 1
	}
	for idx := 0; idx < st.spec.keys; idx += step {
		key = appendKey(key[:0], idx)
		v, tier, _, err := db.GetBuf(key, buf[:0])
		if err != nil {
			return rc, fmt.Errorf("reopen: get key %d: %w", idx, err)
		}
		buf = v
		rc.checked++
		if reason := finalValueError(v, tier, idx, last, &scratch); reason != "" {
			rc.failed++
			if firstFailure == "" {
				firstFailure = reason
			}
		}
	}
	if rc.failed > 0 {
		fmt.Printf("reopen: %d of %d sampled keys wrong, first: %s\n", rc.failed, rc.checked, firstFailure)
	}
	return rc, nil
}

// finalValueError explains why v cannot be key idx's final value, or
// returns "".
func finalValueError(v []byte, tier prismdb.Tier, idx int, last [][]uint32, scratch *[]byte) string {
	if tier == prismdb.TierMiss {
		return fmt.Sprintf("key %d missing", idx)
	}
	info, ok := parseValue(v)
	if !ok || info.idx != idx {
		return fmt.Sprintf("key %d holds a foreign or malformed value", idx)
	}
	if !valueIntact(v, info, scratch) {
		return fmt.Sprintf("key %d value bytes corrupted", idx)
	}
	written := false
	for _, seqs := range last {
		written = written || seqs[idx] > 0
	}
	switch {
	case info.writer == preloadWriter:
		if written {
			return fmt.Sprintf("key %d reverted to its preloaded value", idx)
		}
	case int(info.writer) >= len(last):
		return fmt.Sprintf("key %d written by unknown connection %d", idx, info.writer)
	case info.seq != last[info.writer][idx]:
		return fmt.Sprintf("key %d holds connection %d's write %d, not its last acknowledged %d",
			idx, info.writer, info.seq, last[info.writer][idx])
	}
	return ""
}
