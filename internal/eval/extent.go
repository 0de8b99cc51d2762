package eval

// extentChunkRows is the number of rows one extent chunk holds: the unit
// a write copies when a published header shares it.
const extentChunkRows = 32

// extChunk is one fixed-size run of extent rows. gen is the extent
// generation that created it: the extent writes a chunk in place only
// while gen is current — no header was published since the chunk was made
// — and copies it first otherwise.
type extChunk struct {
	gen  uint64
	rows [extentChunkRows][]uint32
}

// extent is one view's row list, stored as chunks of extentChunkRows rows;
// every chunk but the last is full, and row i lives in chunk i/32. It is
// copy-on-write per chunk: publishing (freeze) copies only the chunk
// pointers and advances the generation, after which a push or swapRemove
// copies just the one or two chunks it writes, and a chunk emptied by
// shrinking is dropped. The cost of a publication is |V|/32 pointers, and
// of a row change O(1), whatever |V| — no capacity outlives the rows.
type extent struct {
	chunks []*extChunk
	n      int
	gen    uint64
}

// len returns the number of rows.
func (x *extent) len() int { return x.n }

// at returns row i.
func (x *extent) at(i int) []uint32 {
	return x.chunks[i/extentChunkRows].rows[i%extentChunkRows]
}

// writable returns chunk i for writing, first replacing it by a private
// copy when a published header may share it.
func (x *extent) writable(i int) *extChunk {
	c := x.chunks[i]
	if c.gen != x.gen {
		cp := *c
		cp.gen = x.gen
		c = &cp
		x.chunks[i] = c
	}
	return c
}

// push appends a row at index len().
func (x *extent) push(r []uint32) {
	k := x.n % extentChunkRows
	if k == 0 {
		x.chunks = append(x.chunks, &extChunk{gen: x.gen})
	}
	x.writable(len(x.chunks) - 1).rows[k] = r
	x.n++
}

// swapRemove deletes row pos by moving the last row into its slot, and
// returns the moved row (nil when pos was the last row).
func (x *extent) swapRemove(pos int) []uint32 {
	last := x.n - 1
	lc, lk := last/extentChunkRows, last%extentChunkRows
	moved := x.chunks[lc].rows[lk]
	if pos != last {
		x.writable(pos / extentChunkRows).rows[pos%extentChunkRows] = moved
	} else {
		moved = nil
	}
	if lk == 0 {
		// The last chunk held only this row: drop it unwritten.
		x.chunks[lc] = nil
		x.chunks = x.chunks[:lc]
	} else {
		x.writable(lc).rows[lk] = nil
	}
	x.n--
	return moved
}

// freeze publishes the current rows as an immutable header: it copies the
// chunk pointers and advances the generation, so every chunk is shared
// from now on and the next write to it copies it.
func (x *extent) freeze() ExtentHeader {
	h := ExtentHeader{chunks: append([]*extChunk(nil), x.chunks...), n: x.n}
	x.gen++
	return h
}

// appendRows appends the rows, in order, to dst.
func (x *extent) appendRows(dst [][]uint32) [][]uint32 {
	return appendChunks(dst, x.chunks, x.n)
}

func appendChunks(dst [][]uint32, chunks []*extChunk, n int) [][]uint32 {
	for _, c := range chunks {
		k := min(n, extentChunkRows)
		dst = append(dst, c.rows[:k]...)
		n -= k
	}
	return dst
}

// ExtentHeader is one published, immutable version of a view extent (see
// DeltaEngine.PublishExtentIDs): later Apply calls copy any chunk they
// write instead of changing it, so a header reads the same rows for as
// long as it is held, without locks. Copying the value shares the chunks.
type ExtentHeader struct {
	chunks []*extChunk
	n      int
}

// Len returns the number of rows.
func (h ExtentHeader) Len() int { return h.n }

// Each calls fn on every row, in order, without flattening the header.
func (h ExtentHeader) Each(fn func(row []uint32)) {
	n := h.n
	for _, c := range h.chunks {
		for _, r := range c.rows[:min(n, extentChunkRows)] {
			fn(r)
		}
		n -= extentChunkRows
	}
}

// AppendRows appends the header's rows, in order, to dst (the rows
// themselves are shared and immutable; treat them as read-only). It costs
// one pointer copy per row, so serving layers flatten once per header and
// memoize.
func (h ExtentHeader) AppendRows(dst [][]uint32) [][]uint32 {
	return appendChunks(dst, h.chunks, h.n)
}
