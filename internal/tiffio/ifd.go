package tiffio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// This file is the one TIFF directory codec behind the classic reader and
// writer (Decode, Encode) and the BigTIFF pyramid (OpenPyramid,
// PyramidWriter): one header parser, one IFD reader and one IFD writer.
// The two formats differ only in the width of an IFD's entry count and of
// a value count or an offset, and so in the size of an entry and of its
// inline value field; format carries exactly that.

// TIFF tag IDs used by the grayscale subset.
const (
	tagNewSubfileType  = 254
	tagImageWidth      = 256
	tagImageLength     = 257
	tagBitsPerSample   = 258
	tagCompression     = 259
	tagPhotometric     = 262
	tagStripOffsets    = 273
	tagSamplesPerPixel = 277
	tagRowsPerStrip    = 278
	tagStripByteCounts = 279
	tagPredictor       = 317
	tagTileWidth       = 322
	tagTileLength      = 323
	tagTileOffsets     = 324
	tagTileByteCounts  = 325
	tagSampleFormat    = 339
)

// TIFF field types the subset reads and writes.
const (
	typeByte  = 1
	typeShort = 3
	typeLong  = 4
	typeLong8 = 16 // BigTIFF's 64-bit unsigned
)

const (
	compressionNone = 1
	// compressionDeflate is the zlib-wrapped Deflate codec (TIFF Technical
	// Note 2, the "Adobe" Deflate tag value every modern reader supports).
	compressionDeflate = 8
	// predictorHorizontal (TIFF 6.0 §14) stores each sample of a row as
	// its difference from the one before it; predictorNone is the default.
	predictorNone         = 1
	predictorHorizontal   = 2
	photometricMinIsBlack = 1
	subfileReduced        = 1 // bit 0: reduced-resolution version of another image
)

// typeSize maps a field type to its byte width, 0 for a type the subset
// does not read.
func typeSize(t uint16) uint64 {
	switch t {
	case typeByte:
		return 1
	case typeShort:
		return 2
	case typeLong:
		return 4
	case typeLong8:
		return 8
	}
	return 0
}

// format is what differs between classic TIFF and BigTIFF (the TIFF 6.0
// supplement "BigTIFF").
type format struct {
	version   uint16 // the header's second word
	countSize uint64 // bytes in an IFD's entry count
	word      uint64 // bytes in a value count, an offset and an inline value field
	maxOffset uint64 // the largest file offset the format addresses
}

var (
	classicTIFF = format{version: 42, countSize: 2, word: 4, maxOffset: math.MaxUint32}
	bigTIFF     = format{version: 43, countSize: 8, word: 8, maxOffset: math.MaxInt64}
)

func (f format) headerSize() uint64 { return 2 * f.word }
func (f format) entrySize() uint64  { return 4 + 2*f.word }

// getUint and putUint read and write an n-byte unsigned value.
func getUint(bo binary.ByteOrder, b []byte, n uint64) uint64 {
	switch n {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(bo.Uint16(b))
	case 4:
		return uint64(bo.Uint32(b))
	}
	return bo.Uint64(b)
}

func putUint(bo binary.ByteOrder, b []byte, n, v uint64) {
	switch n {
	case 1:
		b[0] = byte(v)
	case 2:
		bo.PutUint16(b, uint16(v))
	case 4:
		bo.PutUint32(b, uint32(v))
	default:
		bo.PutUint64(b, v)
	}
}

// byteOrder is the order a writer uses: "MM" when bigEndian, else "II".
func byteOrder(bigEndian bool) binary.ByteOrder {
	if bigEndian {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

// header returns the file header pointing at the first IFD.
func (f format) header(bo binary.ByteOrder, first uint64) []byte {
	h := make([]byte, f.headerSize())
	copy(h, "II")
	if bo == binary.BigEndian {
		copy(h, "MM")
	}
	bo.PutUint16(h[2:], f.version)
	if f == bigTIFF {
		bo.PutUint16(h[4:], 8) // offset size; the reserved word stays 0
	}
	putUint(bo, h[f.headerSize()-f.word:], f.word, first)
	return h
}

// readHeader parses the header of a file in format f: its byte order and
// the offset of its first IFD. A file in the other format is rejected.
func (f format) readHeader(r io.ReaderAt) (binary.ByteOrder, uint64, error) {
	h := make([]byte, f.headerSize())
	if _, err := r.ReadAt(h[:4], 0); err != nil {
		return nil, 0, fmt.Errorf("tiffio: short header: %w", err)
	}
	var bo binary.ByteOrder
	switch string(h[:2]) {
	case "II":
		bo = binary.LittleEndian
	case "MM":
		bo = binary.BigEndian
	default:
		return nil, 0, fmt.Errorf("tiffio: bad byte-order mark %q", h[:2])
	}
	if v := bo.Uint16(h[2:]); v != f.version {
		return nil, 0, fmt.Errorf("tiffio: TIFF version %d, want %d", v, f.version)
	}
	if _, err := r.ReadAt(h[4:], 4); err != nil {
		return nil, 0, fmt.Errorf("tiffio: short header: %w", err)
	}
	if sz := bo.Uint16(h[4:]); f == bigTIFF && sz != 8 {
		return nil, 0, fmt.Errorf("tiffio: BigTIFF offset size %d, want 8", sz)
	}
	first := getUint(bo, h[f.headerSize()-f.word:], f.word)
	if first < f.headerSize() {
		return nil, 0, fmt.Errorf("tiffio: IFD offset %d inside header", first)
	}
	return bo, first, nil
}

// probe fails unless the file holds the byte before end.
func probe(r io.ReaderAt, end uint64) error {
	var b [1]byte
	_, err := r.ReadAt(b[:], int64(end)-1)
	return err
}

// readAt reads the n bytes at off into buf, grown as needed. Before it
// grows buf it probes the last of those bytes, so a header claiming bytes
// the file does not hold fails before anything is allocated for them.
func readAt(r io.ReaderAt, off, n uint64, buf []byte) ([]byte, error) {
	if off > math.MaxInt64 || n > math.MaxInt64-off {
		return nil, fmt.Errorf("tiffio: %d bytes at offset %d out of range", n, off)
	}
	if uint64(cap(buf)) < n {
		if err := probe(r, off+n); err != nil {
			return nil, err
		}
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := r.ReadAt(buf, int64(off)); err != nil {
		return nil, err
	}
	return buf, nil
}

// Bounds on what an IFD may claim: far more entries than any writer
// emits, and more tag data than a chunk table of 2^25 tiles needs.
const (
	maxEntries  = 1 << 12
	maxTagBytes = 256 << 20
)

// directory is one parsed IFD: the image it describes and where its
// chunks, strips or tiles, lie in the file.
type directory struct {
	w, h         int
	bits         int
	compression  uint64
	predictor    uint64 // predictorNone or, on Deflate tiles, predictorHorizontal
	tileW, tileH int    // zero for a strip image
	across, down int    // the tile grid
	offs, cnts   []uint64
	next         uint64 // the next IFD's offset, 0 at the end of the chain
}

// readDir parses the IFD at off into the directory of an 8- or 16-bit
// single-sample image of raw strips or of raw or Deflate tiles, the
// Deflate tiles with or without the horizontal predictor. Tags the subset
// does not use are skipped unread.
func (f format) readDir(r io.ReaderAt, bo binary.ByteOrder, off uint64) (*directory, error) {
	nb, err := readAt(r, off, f.countSize, nil)
	if err != nil {
		return nil, fmt.Errorf("tiffio: IFD count: %w", err)
	}
	n := getUint(bo, nb, f.countSize)
	if n == 0 || n > maxEntries {
		return nil, fmt.Errorf("tiffio: implausible IFD entry count %d", n)
	}
	es := f.entrySize()
	buf, err := readAt(r, off+f.countSize, n*es+f.word, nil)
	if err != nil {
		return nil, fmt.Errorf("tiffio: IFD entries: %w", err)
	}
	d := &directory{bits: 1, compression: compressionNone, predictor: predictorNone, next: getUint(bo, buf[n*es:], f.word)}
	spp := uint64(1)
	for i := uint64(0); i < n; i++ {
		e := buf[i*es : (i+1)*es]
		tag := bo.Uint16(e)
		switch tag {
		case tagImageWidth, tagImageLength, tagBitsPerSample, tagCompression, tagSamplesPerPixel, tagPredictor,
			tagTileWidth, tagTileLength, tagStripOffsets, tagTileOffsets, tagStripByteCounts, tagTileByteCounts:
		default:
			continue
		}
		vals, err := f.values(r, bo, e)
		if err != nil {
			return nil, fmt.Errorf("tiffio: tag %d: %w", tag, err)
		}
		v := int(min(vals[0], math.MaxInt32))
		switch tag {
		case tagImageWidth:
			d.w = v
		case tagImageLength:
			d.h = v
		case tagBitsPerSample:
			d.bits = v
		case tagCompression:
			d.compression = vals[0]
		case tagSamplesPerPixel:
			spp = vals[0]
		case tagPredictor:
			d.predictor = vals[0]
		case tagTileWidth:
			d.tileW = v
		case tagTileLength:
			d.tileH = v
		case tagStripOffsets, tagTileOffsets:
			d.offs = vals
		case tagStripByteCounts, tagTileByteCounts:
			d.cnts = vals
		}
	}

	if d.w <= 0 || d.h <= 0 || d.w > 1<<30 || d.h > 1<<30 {
		return nil, fmt.Errorf("tiffio: implausible dimensions %dx%d", d.w, d.h)
	}
	if (d.bits != 8 && d.bits != 16) || spp != 1 {
		return nil, fmt.Errorf("tiffio: %d-bit ×%d samples, want 8- or 16-bit grayscale", d.bits, spp)
	}
	if d.compression != compressionNone && d.compression != compressionDeflate {
		return nil, fmt.Errorf("tiffio: unsupported compression %d", d.compression)
	}
	switch {
	case d.predictor != predictorNone && d.predictor != predictorHorizontal:
		return nil, fmt.Errorf("tiffio: Predictor (tag %d) is %d; only 1 (none) and 2 (horizontal) are supported", tagPredictor, d.predictor)
	case d.predictor == predictorHorizontal && d.compression != compressionDeflate:
		return nil, fmt.Errorf("tiffio: Predictor (tag %d) 2 on uncompressed chunks is not supported", tagPredictor)
	}
	if len(d.offs) == 0 || len(d.offs) != len(d.cnts) {
		return nil, fmt.Errorf("tiffio: %d chunk offsets vs %d byte counts", len(d.offs), len(d.cnts))
	}
	if d.tileW == 0 && d.tileH == 0 {
		if d.compression != compressionNone {
			return nil, fmt.Errorf("tiffio: compressed strips are not supported")
		}
		return d, nil
	}
	if d.tileW <= 0 || d.tileH <= 0 || d.tileW > 1<<16 || d.tileH > 1<<16 {
		return nil, fmt.Errorf("tiffio: invalid tile size %dx%d", d.tileW, d.tileH)
	}
	d.across = (d.w + d.tileW - 1) / d.tileW
	d.down = (d.h + d.tileH - 1) / d.tileH
	if len(d.offs) != d.across*d.down {
		return nil, fmt.Errorf("tiffio: %d tile offsets for a %dx%d tile grid", len(d.offs), d.down, d.across)
	}
	return d, nil
}

// values reads the values of IFD entry e: from its inline field when
// they fit there, else from the offset that field holds.
func (f format) values(r io.ReaderAt, bo binary.ByteOrder, e []byte) ([]uint64, error) {
	ftype, count := bo.Uint16(e[2:]), getUint(bo, e[4:], f.word)
	size := typeSize(ftype)
	if size == 0 {
		return nil, fmt.Errorf("unsupported field type %d", ftype)
	}
	if count == 0 || count > maxTagBytes/size {
		return nil, fmt.Errorf("implausible value count %d", count)
	}
	data := e[4+f.word:]
	if count*size > f.word {
		var err error
		if data, err = readAt(r, getUint(bo, data, f.word), count*size, nil); err != nil {
			return nil, err
		}
	}
	vals := make([]uint64, count)
	for i := range vals {
		vals[i] = getUint(bo, data[uint64(i)*size:], size)
	}
	return vals, nil
}

// ErrOffsetOverflow reports that an encode would place data past the
// 4 GiB boundary classic TIFF's 32-bit offsets can address. Before this
// check the offsets silently wrapped and the file was corrupt. Plates
// that large belong in the BigTIFF pyramid layout: compose them with
// compose.ComposeSharded into a tiffio.PyramidWriter, whose offsets are
// 64-bit.
var ErrOffsetOverflow = errors.New("tiffio: image exceeds the 4 GiB classic-TIFF offset space (write it with the sharded pyramid writer: compose.ComposeSharded / tiffio.NewPyramidWriter)")

// chunkLayout assigns sequential file offsets starting at base to chunks
// of the given sizes, returning the offset and byte-count arrays a classic
// TIFF directory stores and the file position after the last chunk. An
// offset that would not fit the 32-bit field is ErrOffsetOverflow, not
// silently truncated.
func chunkLayout(base uint64, sizes []int) (offs, cnts []uint64, end uint64, err error) {
	offs = make([]uint64, len(sizes))
	cnts = make([]uint64, len(sizes))
	off := base
	for i, n := range sizes {
		if n < 0 {
			return nil, nil, 0, fmt.Errorf("tiffio: negative chunk size %d", n)
		}
		if off > math.MaxUint32 {
			return nil, nil, 0, ErrOffsetOverflow
		}
		offs[i] = off
		cnts[i] = uint64(n)
		off += uint64(n)
	}
	if off > math.MaxUint32 {
		return nil, nil, 0, ErrOffsetOverflow
	}
	return offs, cnts, off, nil
}

// field is one IFD entry to write.
type field struct {
	tag, ftype uint16
	vals       []uint64
}

func one(tag, ftype uint16, v int) field { return field{tag, ftype, []uint64{uint64(v)}} }

// imageFields open every directory the writers emit: a w×h 16-bit
// min-is-black image.
func imageFields(w, h int, compression uint64) []field {
	return []field{
		one(tagImageWidth, typeLong, w),
		one(tagImageLength, typeLong, h),
		one(tagBitsPerSample, typeShort, 16),
		{tagCompression, typeShort, []uint64{compression}},
		one(tagPhotometric, typeShort, photometricMinIsBlack),
	}
}

// tiledFields are the entries of a w×h image cut into tw×th tiles stored
// at offs with byte counts cnts, in the format's offset width. Deflate
// tiles carry the horizontal predictor (packTile's predict).
func (f format) tiledFields(w, h, tw, th int, compression uint64, offs, cnts []uint64) []field {
	var offType uint16 = typeLong
	if f == bigTIFF {
		offType = typeLong8
	}
	fields := append(imageFields(w, h, compression), one(tagSamplesPerPixel, typeShort, 1))
	if compression == compressionDeflate {
		fields = append(fields, one(tagPredictor, typeShort, predictorHorizontal))
	}
	return append(fields,
		one(tagTileWidth, typeLong, tw),
		one(tagTileLength, typeLong, th),
		field{tagTileOffsets, offType, offs},
		field{tagTileByteCounts, offType, cnts})
}

// dirHead is the size of an n-entry IFD without its out-of-line arrays:
// the entry count, the entries and the next IFD's offset.
func (f format) dirHead(n int) uint64 { return f.countSize + uint64(n)*f.entrySize() + f.word }

// encodeDir encodes the IFD of fields for file offset off: the entry
// count, the entries, the next IFD's offset, then, in entry order, every
// value array too wide for its entry's inline field, where inline values
// are left-justified. With chain set the next IFD follows this one
// directly; otherwise the chain ends here. A directory that would end
// past what the format addresses is ErrOffsetOverflow.
func (f format) encodeDir(bo binary.ByteOrder, off uint64, fields []field, chain bool) ([]byte, error) {
	es := f.entrySize()
	head := f.dirHead(len(fields))
	size := head
	for _, fl := range fields {
		if n := uint64(len(fl.vals)) * typeSize(fl.ftype); n > f.word {
			size += n
		}
	}
	end := off + size
	if end > f.maxOffset {
		return nil, ErrOffsetOverflow
	}
	buf := make([]byte, head, size)
	putUint(bo, buf, f.countSize, uint64(len(fields)))
	for i, fl := range fields {
		e := buf[f.countSize+uint64(i)*es:]
		bo.PutUint16(e, fl.tag)
		bo.PutUint16(e[2:], fl.ftype)
		putUint(bo, e[4:], f.word, uint64(len(fl.vals)))
		sz := typeSize(fl.ftype)
		data := e[4+f.word:]
		if n := uint64(len(fl.vals)) * sz; n > f.word {
			putUint(bo, data, f.word, off+uint64(len(buf)))
			buf = buf[:uint64(len(buf))+n]
			data = buf[uint64(len(buf))-n:]
		}
		for j, v := range fl.vals {
			putUint(bo, data[uint64(j)*sz:], sz, v)
		}
	}
	if chain {
		putUint(bo, buf[head-f.word:], f.word, end)
	}
	return buf, nil
}
