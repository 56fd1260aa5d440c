package main

import (
	"bytes"
	"encoding/binary"
)

// Every stored value is self-describing so a reply can be checked without a
// shadow copy of the database: bytes 0-15 are the key, byte 16 the writing
// connection (preloadWriter for the set-up pass), bytes 17-20 that
// connection's sequence number for the key, and the rest a filler that is a
// pure function of those three.
const (
	keyLen        = 16
	valueHeader   = keyLen + 1 + 4
	preloadWriter = 0xff
)

// appendKey appends workload.KeyOf(i) to dst without allocating.
func appendKey(dst []byte, i int) []byte {
	n := len(dst)
	dst = append(dst, "user000000000000"...)
	for j := n + keyLen - 1; j >= n+4; j-- {
		dst[j] = byte('0' + i%10)
		i /= 10
	}
	return dst
}

// keyIndex inverts appendKey for a well-formed key; ok is false otherwise.
func keyIndex(key []byte) (int, bool) {
	if len(key) != keyLen || string(key[:4]) != "user" {
		return 0, false
	}
	n := 0
	for _, c := range key[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// appendValue appends the value connection writer stores under key index
// idx as its seq-th write of that key.
func appendValue(dst []byte, idx int, writer byte, seq uint32) []byte {
	n := len(dst)
	dst = appendKey(dst, idx)
	dst = append(dst, writer)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	// splitmix64 filler: eight bytes per step.
	x := uint64(idx)<<40 ^ uint64(writer)<<32 ^ uint64(seq)
	for len(dst)-n < valueSize {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		dst = binary.LittleEndian.AppendUint64(dst, z^(z>>31))
	}
	return dst[:n+valueSize]
}

// valueInfo is a decoded value header.
type valueInfo struct {
	idx    int
	writer byte
	seq    uint32
}

// parseValue checks a value's length and header; ok is false for a value
// this harness cannot have written.
func parseValue(v []byte) (valueInfo, bool) {
	if len(v) != valueSize {
		return valueInfo{}, false
	}
	idx, ok := keyIndex(v[:keyLen])
	if !ok {
		return valueInfo{}, false
	}
	return valueInfo{idx: idx, writer: v[keyLen], seq: binary.BigEndian.Uint32(v[keyLen+1:])}, true
}

// valueIntact regenerates the whole value from its header and compares
// every byte. scratch is reused across calls.
func valueIntact(v []byte, info valueInfo, scratch *[]byte) bool {
	*scratch = appendValue((*scratch)[:0], info.idx, info.writer, info.seq)
	return bytes.Equal(v, *scratch)
}
