package obs

import (
	"encoding/binary"
	"errors"
	"math"
)

// A packed trace is a run of finished spans encoded into one []byte, so a
// trace kept for later (the job service's flight recorder) costs its bytes
// and no pointers: the collector never scans it, and a span's strings and
// attributes no longer cost a header and an allocation each. PackSpans
// writes it, UnpackSpans reads it back to the same spans, field for field
// and bit for bit (a span without attributes reads back with nil Attrs).
//
// The layout is varints throughout (encoding/binary; signed ones zigzag):
//
//	trace := uvarint(spans) uvarint(attrs) span*
//	span  := varint(ID − previous ID) varint(ID − Parent) string(Cat)
//	         string(Name) varint(Start − previous Start) varint(End − Start)
//	         uvarint(len(Attrs)) attr*
//	attr  := string(Key) varint(Kind) payload
//	payload, by Kind: AttrInt varint(Int); AttrFloat the 8 little-endian
//	         bytes of math.Float64bits(Float); any other kind string(Str)
//	string := uvarint(len) bytes
//
// The "previous" values start at 0. Differences wrap like int64
// arithmetic, so every int64 survives the round trip.

// ErrCorruptTrace is returned by UnpackSpans for bytes PackSpans did not
// write.
var ErrCorruptTrace = errors.New("obs: corrupt packed trace")

// PackSpans encodes spans, in order, into one exactly sized buffer: a single
// allocation whatever the number of spans and attributes.
func PackSpans(spans []Span) []byte {
	if len(spans) == 0 {
		return nil
	}
	return appendSpans(make([]byte, 0, packedLen(spans)), spans)
}

// Pack encodes the finished spans, in completion order, as PackSpans does.
func (t *Tracer) Pack() []byte {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return PackSpans(t.done)
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// packedLen is the length appendSpans writes for spans.
func packedLen(spans []Span) int {
	attrs := 0
	for i := range spans {
		attrs += len(spans[i].Attrs)
	}
	n := uvarintLen(uint64(len(spans))) + uvarintLen(uint64(attrs))
	var prevID, prevStart int64
	for i := range spans {
		s := &spans[i]
		n += uvarintLen(zigzag(int64(s.ID)-prevID)) + uvarintLen(zigzag(int64(s.ID)-int64(s.Parent))) +
			stringLen(s.Cat) + stringLen(s.Name) +
			uvarintLen(zigzag(s.Start-prevStart)) + uvarintLen(zigzag(s.End-s.Start)) +
			uvarintLen(uint64(len(s.Attrs)))
		prevID, prevStart = int64(s.ID), s.Start
		for _, a := range s.Attrs {
			n += stringLen(a.Key) + uvarintLen(zigzag(int64(a.Kind)))
			switch a.Kind {
			case AttrInt:
				n += uvarintLen(zigzag(a.Int))
			case AttrFloat:
				n += 8
			default:
				n += stringLen(a.Str)
			}
		}
	}
	return n
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendSpans(b []byte, spans []Span) []byte {
	attrs := 0
	for i := range spans {
		attrs += len(spans[i].Attrs)
	}
	b = binary.AppendUvarint(b, uint64(len(spans)))
	b = binary.AppendUvarint(b, uint64(attrs))
	var prevID, prevStart int64
	for i := range spans {
		s := &spans[i]
		b = binary.AppendVarint(b, int64(s.ID)-prevID)
		b = binary.AppendVarint(b, int64(s.ID)-int64(s.Parent))
		b = appendString(b, s.Cat)
		b = appendString(b, s.Name)
		b = binary.AppendVarint(b, s.Start-prevStart)
		b = binary.AppendVarint(b, s.End-s.Start)
		b = binary.AppendUvarint(b, uint64(len(s.Attrs)))
		prevID, prevStart = int64(s.ID), s.Start
		for _, a := range s.Attrs {
			b = appendString(b, a.Key)
			b = binary.AppendVarint(b, int64(a.Kind))
			switch a.Kind {
			case AttrInt:
				b = binary.AppendVarint(b, a.Int)
			case AttrFloat:
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Float))
			default:
				b = appendString(b, a.Str)
			}
		}
	}
	return b
}

// unpacker reads a packed trace. Its strings are substrings of one copy of
// the whole buffer, so decoding allocates that copy, the span slice and one
// attribute array, whatever the trace holds.
type unpacker struct {
	b   []byte
	s   string // the same bytes as b
	off int
	err error
}

func (u *unpacker) uvarint() uint64 {
	if u.err != nil {
		return 0
	}
	v, n := binary.Uvarint(u.b[u.off:])
	if n <= 0 {
		u.err = ErrCorruptTrace
		return 0
	}
	u.off += n
	return v
}

func (u *unpacker) varint() int64 {
	v := u.uvarint()
	return int64(v>>1) ^ -int64(v&1)
}

func (u *unpacker) string() string {
	n := u.uvarint()
	if u.err != nil {
		return ""
	}
	if n > uint64(len(u.b)-u.off) {
		u.err = ErrCorruptTrace
		return ""
	}
	s := u.s[u.off : u.off+int(n)]
	u.off += int(n)
	return s
}

func (u *unpacker) float() float64 {
	if u.err != nil {
		return 0
	}
	if len(u.b)-u.off < 8 {
		u.err = ErrCorruptTrace
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(u.b[u.off:]))
	u.off += 8
	return v
}

// UnpackSpans decodes a trace PackSpans wrote. Bytes it did not write give
// ErrCorruptTrace (or, by chance, other spans), never a panic.
func UnpackSpans(b []byte) ([]Span, error) {
	if len(b) == 0 {
		return nil, nil
	}
	u := &unpacker{b: b, s: string(b)}
	nSpans, nAttrs := u.uvarint(), u.uvarint()
	// A span takes at least 7 bytes and an attribute at least 3, so counts
	// past the buffer's length are corrupt, not a reason to allocate.
	if u.err != nil || nSpans > uint64(len(b)) || nAttrs > uint64(len(b)) {
		return nil, ErrCorruptTrace
	}
	spans := make([]Span, nSpans)
	var all []Attr
	if nAttrs > 0 {
		all = make([]Attr, nAttrs)
	}
	var prevID, prevStart int64
	used := 0
	for i := range spans {
		s := &spans[i]
		id := prevID + u.varint()
		s.ID, s.Parent = SpanID(id), SpanID(id-u.varint())
		s.Cat, s.Name = u.string(), u.string()
		s.Start = prevStart + u.varint()
		s.End = s.Start + u.varint()
		prevID, prevStart = id, s.Start
		n := u.uvarint()
		if u.err != nil || n > uint64(len(all)-used) {
			return nil, ErrCorruptTrace
		}
		if n == 0 {
			continue
		}
		s.Attrs = all[used : used+int(n) : used+int(n)]
		used += int(n)
		for k := range s.Attrs {
			a := &s.Attrs[k]
			a.Key, a.Kind = u.string(), AttrKind(u.varint())
			switch a.Kind {
			case AttrInt:
				a.Int = u.varint()
			case AttrFloat:
				a.Float = u.float()
			default:
				a.Str = u.string()
			}
		}
	}
	if u.err != nil || used != len(all) || u.off != len(b) {
		return nil, ErrCorruptTrace
	}
	return spans, nil
}
