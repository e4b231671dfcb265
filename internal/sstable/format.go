// Package sstable implements the immutable on-disk table format of the
// storage engine, in the spirit of HBase HFiles and LevelDB tables.
//
// A table is a sequence of blocks:
//
//	[data block]*
//	[bloom filter block]
//	[index block]
//	[footer]
//
// Data blocks hold key-value entries in sorted order with shared-prefix key
// compression and restart points for binary search. The index block maps
// the last key of every data block to its file position. The Bloom filter
// covers all keys in the table and lets point reads skip the table without
// touching a data block. Every block is protected by a CRC32C checksum.
package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Sentinel errors.
var (
	ErrCorrupt     = errors.New("sstable: corrupt table")
	ErrClosed      = errors.New("sstable: reader is closed")
	ErrOutOfOrder  = errors.New("sstable: keys added out of order")
	ErrEmptyTable  = errors.New("sstable: table has no entries")
	ErrNotFound    = errors.New("sstable: key not found")
	errBadMagic    = errors.New("sstable: bad magic")
	errShortFooter = errors.New("sstable: short footer")
)

const (
	// magic marks the footer ("IoTSSTb2"): per-table min/max timestamps
	// and a compression kind, and every block carries a 5-byte trailer
	// (compression type + CRC).
	magic uint64 = 0x496f545353546232

	// footerLen: index handle (16) + bloom handle (16) + entry count (8) +
	// min timestamp (8) + max timestamp (8) + compression kind (1) + flags
	// (1) + reserved (6) + magic (8).
	footerLen = 72

	// restartInterval is the number of entries between restart points in a
	// data block.
	restartInterval = 16

	// trailerLen: 1-byte compression type + 4-byte CRC32C over the stored
	// payload plus the type byte.
	trailerLen = 5
)

// Compression selects the per-block encoding of data blocks. Index, filter
// and footer blocks are always stored raw so table opens stay cheap.
type Compression uint8

const (
	// NoCompression stores blocks raw.
	NoCompression Compression = 0
	// FlateCompression DEFLATE-compresses data blocks (stdlib compress/flate
	// at BestSpeed), keeping a block raw when compression does not shrink it.
	FlateCompression Compression = 1
)

// String renders the compression kind for flags and reports.
func (c Compression) String() string {
	switch c {
	case NoCompression:
		return "none"
	case FlateCompression:
		return "flate"
	}
	return fmt.Sprintf("compression(%d)", uint8(c))
}

// ParseCompression maps a flag value to a Compression kind.
func ParseCompression(s string) (Compression, error) {
	switch s {
	case "", "none":
		return NoCompression, nil
	case "flate":
		return FlateCompression, nil
	}
	return NoCompression, fmt.Errorf("sstable: unknown compression %q (want none or flate)", s)
}

// footer flag bits.
const flagHasTimeBounds = 1 << 0

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// handle locates a block within the file.
type handle struct {
	offset uint64
	length uint64 // excluding the checksum trailer
}

func (h handle) encode(dst []byte) {
	binary.LittleEndian.PutUint64(dst[0:8], h.offset)
	binary.LittleEndian.PutUint64(dst[8:16], h.length)
}

// span checks that the stored block — payload plus trailer — lies within
// the first limit bytes of the file, without overflow, and returns its end
// offset.
func (h handle) span(limit uint64) (uint64, error) {
	if h.length > limit || h.offset > limit-h.length || limit-h.length-h.offset < trailerLen {
		return 0, corruptf("block handle %d+%d beyond %d-byte region", h.offset, h.length, limit)
	}
	return h.offset + h.length + trailerLen, nil
}

func decodeHandle(b []byte) handle {
	return handle{
		offset: binary.LittleEndian.Uint64(b[0:8]),
		length: binary.LittleEndian.Uint64(b[8:16]),
	}
}

// footer is the fixed-size tail of the file. minTS/maxTS are POSIX-ms
// timestamps extracted from the keys at write time; hasTS is false when no
// key carried an extractable timestamp (the bounds are then meaningless).
type footer struct {
	index       handle
	bloom       handle
	entries     uint64
	minTS       int64
	maxTS       int64
	hasTS       bool
	compression Compression
}

func (f footer) encode() []byte {
	out := make([]byte, footerLen)
	f.index.encode(out[0:16])
	f.bloom.encode(out[16:32])
	binary.LittleEndian.PutUint64(out[32:40], f.entries)
	binary.LittleEndian.PutUint64(out[40:48], uint64(f.minTS))
	binary.LittleEndian.PutUint64(out[48:56], uint64(f.maxTS))
	out[56] = byte(f.compression)
	if f.hasTS {
		out[57] |= flagHasTimeBounds
	}
	binary.LittleEndian.PutUint64(out[64:72], magic)
	return out
}

// decodeFooter parses the last footerLen bytes of a file.
func decodeFooter(b []byte) (footer, error) {
	if len(b) < footerLen {
		return footer{}, errShortFooter
	}
	b = b[len(b)-footerLen:]
	if binary.LittleEndian.Uint64(b[64:72]) != magic {
		return footer{}, errBadMagic
	}
	return footer{
		index:       decodeHandle(b[0:16]),
		bloom:       decodeHandle(b[16:32]),
		entries:     binary.LittleEndian.Uint64(b[32:40]),
		minTS:       int64(binary.LittleEndian.Uint64(b[40:48])),
		maxTS:       int64(binary.LittleEndian.Uint64(b[48:56])),
		compression: Compression(b[56]),
		hasTS:       b[57]&flagHasTimeBounds != 0,
	}, nil
}

func checksum(block []byte) uint32 {
	return crc32.Checksum(block, crcTable)
}

func sharedPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}
