package sstable

import "fmt"

// readAheadBytes is a sequential iterator's window: one pread fetches this
// many bytes of consecutive data blocks (less at the end of the data
// region, more only for a single block larger than the window).
const readAheadBytes = 256 << 10

// readAhead is a sequential iterator's private view of the data region. It
// holds one reused window of consecutive stored blocks and decodes each
// block in place into a reused block and blockIter, so a full pass costs a
// few preads and no per-block allocation for raw tables.
type readAhead struct {
	r    *Reader
	win  []byte // stored bytes read ahead; its capacity is reused across refills
	off  uint64 // file offset of win[0]
	raw  []byte // inflated payload of the current flate block, reused
	blk  block
	it   blockIter
	read int64 // bytes fetched from disk
}

// block decodes the data block at h and returns the reused iterator over
// it, positioned nowhere.
func (ra *readAhead) block(h handle, inf *inflater) (*blockIter, error) {
	stored, err := ra.stored(h)
	if err != nil {
		return nil, err
	}
	raw, err := decodeBlock(stored, h, inf, ra.raw)
	if err != nil {
		return nil, err
	}
	if Compression(stored[h.length]) == FlateCompression {
		ra.raw = raw // keep the grown inflate buffer for the next block
	}
	if err := ra.blk.parse(raw); err != nil {
		return nil, err
	}
	ra.it = blockIter{b: &ra.blk, key: ra.it.key[:0]}
	return &ra.it, nil
}

// stored returns the stored bytes (payload plus trailer) of the block at h,
// refilling the window when the block is not wholly inside it. A refill
// starts at h, keeps the bytes of the old window from h on, and reads the
// rest, so every byte of the data region is read at most once per pass and
// nothing past the data region is read at all.
func (ra *readAhead) stored(h handle) ([]byte, error) {
	end, err := h.span(ra.r.dataEnd)
	if err != nil {
		return nil, err
	}
	winEnd := ra.off + uint64(len(ra.win))
	if h.offset >= ra.off && end <= winEnd {
		return ra.win[h.offset-ra.off : end-ra.off], nil
	}
	n := max(end, min(h.offset+readAheadBytes, ra.r.dataEnd)) - h.offset
	var keep []byte
	if h.offset >= ra.off && h.offset < winEnd {
		keep = ra.win[h.offset-ra.off:]
	}
	if uint64(cap(ra.win)) < n {
		win := make([]byte, n)
		copy(win, keep)
		ra.win = win
	} else {
		ra.win = ra.win[:n]
		copy(ra.win, keep)
	}
	ra.off = h.offset
	k := len(keep)
	if _, err := ra.r.f.ReadAt(ra.win[k:], int64(h.offset)+int64(k)); err != nil {
		ra.win = ra.win[:0]
		return nil, fmt.Errorf("sstable: read ahead: %w", err)
	}
	ra.read += int64(n) - int64(k)
	return ra.win[:end-h.offset], nil
}
