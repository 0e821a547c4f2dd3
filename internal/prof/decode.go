package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// decode.go hand-decodes the pprof protobuf wire format
// (github.com/google/pprof/proto/profile.proto). Only the field
// numbers below are load-bearing; they are frozen by the pprof
// project, so pinning them here is as stable as linking a generated
// parser and costs zero dependencies.
//
//	Profile:  1 sample_type, 2 sample, 4 location, 5 function,
//	          6 string_table, 14 default_sample_type
//	Sample:   1 location_id (packed), 2 value (packed)
//	Location: 1 id, 3 address, 4 line
//	Line:     1 function_id
//	Function: 1 id, 2 name
//	ValueType: 1 type, 2 unit
//
// Every other field is skipped. Mappings, file names and line numbers
// add nothing for profiles of Go binaries the repo built itself,
// whose function table is already symbolized; labels, timestamps,
// periods and comments have no reader (Aggregate works on function
// names and sample values only).

// Decode limits: a hostile or corrupt profile must fail fast, not
// allocate unboundedly. Real profiles here are 10KB-2MB.
const (
	maxProfileBytes = 256 << 20 // decompressed
	maxStringTable  = 1 << 22   // entries
	maxSamples      = 1 << 22
)

// wire types used by profile.proto.
const (
	wireVarint = 0
	wireI64    = 1
	wireLen    = 2
	wireI32    = 5
)

type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) done() bool { return d.pos >= len(d.data) }

func (d *decoder) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if d.pos >= len(d.data) {
			return 0, io.ErrUnexpectedEOF
		}
		b := d.data[d.pos]
		d.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("varint overflows 64 bits")
}

// tag reads one field tag, returning field number and wire type.
func (d *decoder) tag() (int, int, error) {
	v, err := d.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(v >> 3), int(v & 7), nil
}

// bytesField reads one length-delimited payload.
func (d *decoder) bytesField() ([]byte, error) {
	n, err := d.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.data)-d.pos) {
		return nil, io.ErrUnexpectedEOF
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

func (d *decoder) skip(wire int) error {
	switch wire {
	case wireVarint:
		_, err := d.varint()
		return err
	case wireI64:
		if len(d.data)-d.pos < 8 {
			return io.ErrUnexpectedEOF
		}
		d.pos += 8
		return nil
	case wireLen:
		_, err := d.bytesField()
		return err
	case wireI32:
		if len(d.data)-d.pos < 4 {
			return io.ErrUnexpectedEOF
		}
		d.pos += 4
		return nil
	default:
		return fmt.Errorf("unsupported wire type %d", wire)
	}
}

// intField reads a numeric field that may be either a bare varint or
// (for repeated fields) a packed run; the callback receives each
// value. profile.proto's int64 fields use plain two's-complement
// varints, not zigzag.
func (d *decoder) intField(wire int, fn func(uint64)) error {
	switch wire {
	case wireVarint:
		v, err := d.varint()
		if err != nil {
			return err
		}
		fn(v)
		return nil
	case wireLen:
		b, err := d.bytesField()
		if err != nil {
			return err
		}
		sub := decoder{data: b}
		for !sub.done() {
			v, err := sub.varint()
			if err != nil {
				return err
			}
			fn(v)
		}
		return nil
	default:
		return fmt.Errorf("numeric field with wire type %d", wire)
	}
}

// Raw (unresolved) structures, mirroring profile.proto references by
// table index / id.

type rawValueType struct{ typeIdx, unitIdx int64 }

type rawSample struct {
	locIDs []uint64
	values []int64
}

type rawLocation struct {
	id      uint64
	address uint64
	funcIDs []uint64 // one per line record, deepest inlined call first
}

type rawFunction struct {
	id      uint64
	nameIdx int64
}

// IsGzipped reports whether data starts with the gzip magic.
func IsGzipped(data []byte) bool {
	return len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b
}

// Parse decodes a pprof profile from data, transparently gunzipping
// (the Go runtime always emits gzip-compressed profiles).
func Parse(data []byte) (*Profile, error) {
	if IsGzipped(data) {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
		raw, err := io.ReadAll(io.LimitReader(zr, maxProfileBytes+1))
		zr.Close()
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
		if len(raw) > maxProfileBytes {
			return nil, fmt.Errorf("prof: decompressed profile exceeds %d bytes", maxProfileBytes)
		}
		data = raw
	}
	p, err := parseUncompressed(data)
	if err != nil {
		return nil, fmt.Errorf("prof: parse: %w", err)
	}
	// profile.proto requires at least one sample_type; its absence
	// means the bytes were empty or not a profile at all.
	if len(p.SampleTypes) == 0 {
		return nil, fmt.Errorf("prof: parse: no sample types (not a pprof profile?)")
	}
	return p, nil
}

func parseUncompressed(data []byte) (*Profile, error) {
	var (
		strtab      []string
		sampleTypes []rawValueType
		samples     []rawSample
		locs        []rawLocation
		funcs       []rawFunction
		defType     int64
	)
	d := decoder{data: data}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return nil, err
		}
		switch field {
		case 1: // sample_type
			b, err := expectLen(&d, wire)
			if err != nil {
				return nil, err
			}
			vt, err := parseValueType(b)
			if err != nil {
				return nil, err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			b, err := expectLen(&d, wire)
			if err != nil {
				return nil, err
			}
			s, err := parseSample(b)
			if err != nil {
				return nil, err
			}
			if len(samples) >= maxSamples {
				return nil, fmt.Errorf("more than %d samples", maxSamples)
			}
			samples = append(samples, s)
		case 4: // location
			b, err := expectLen(&d, wire)
			if err != nil {
				return nil, err
			}
			l, err := parseLocation(b)
			if err != nil {
				return nil, err
			}
			locs = append(locs, l)
		case 5: // function
			b, err := expectLen(&d, wire)
			if err != nil {
				return nil, err
			}
			f, err := parseFunction(b)
			if err != nil {
				return nil, err
			}
			funcs = append(funcs, f)
		case 6: // string_table
			b, err := expectLen(&d, wire)
			if err != nil {
				return nil, err
			}
			if len(strtab) >= maxStringTable {
				return nil, fmt.Errorf("string table exceeds %d entries", maxStringTable)
			}
			strtab = append(strtab, string(b))
		case 14: // default_sample_type
			if err := d.intField(wire, func(v uint64) { defType = int64(v) }); err != nil {
				return nil, err
			}
		default:
			if err := d.skip(wire); err != nil {
				return nil, err
			}
		}
	}

	str := func(idx int64) (string, error) {
		if idx == 0 {
			return "", nil
		}
		if idx < 0 || idx >= int64(len(strtab)) {
			return "", fmt.Errorf("string index %d out of range (table has %d)", idx, len(strtab))
		}
		return strtab[idx], nil
	}

	p := &Profile{}
	var err error
	if p.DefaultSampleType, err = str(defType); err != nil {
		return nil, err
	}
	for _, vt := range sampleTypes {
		t, err := str(vt.typeIdx)
		if err != nil {
			return nil, err
		}
		u, err := str(vt.unitIdx)
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: t, Unit: u})
	}

	// Resolve locations to frame slices up front; samples then just
	// concatenate them.
	funcByID := make(map[uint64]rawFunction, len(funcs))
	for _, f := range funcs {
		funcByID[f.id] = f
	}
	framesByLoc := make(map[uint64][]Frame, len(locs))
	for _, l := range locs {
		var frames []Frame
		for _, id := range l.funcIDs {
			f, ok := funcByID[id]
			if !ok {
				return nil, fmt.Errorf("location %d references unknown function %d", l.id, id)
			}
			name, err := str(f.nameIdx)
			if err != nil {
				return nil, err
			}
			frames = append(frames, Frame{Function: name})
		}
		if len(frames) == 0 {
			// Unsymbolized: keep the address so stacks stay intact.
			frames = []Frame{{Function: fmt.Sprintf("0x%x", l.address)}}
		}
		framesByLoc[l.id] = frames
	}

	p.Samples = make([]Sample, 0, len(samples))
	for _, rs := range samples {
		s := Sample{Values: rs.values}
		for _, id := range rs.locIDs {
			frames, ok := framesByLoc[id]
			if !ok {
				return nil, fmt.Errorf("sample references unknown location %d", id)
			}
			s.Stack = append(s.Stack, frames...)
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

func expectLen(d *decoder, wire int) ([]byte, error) {
	if wire != wireLen {
		return nil, fmt.Errorf("expected length-delimited field, got wire type %d", wire)
	}
	return d.bytesField()
}

func parseValueType(b []byte) (rawValueType, error) {
	var vt rawValueType
	d := decoder{data: b}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return vt, err
		}
		switch field {
		case 1:
			err = d.intField(wire, func(v uint64) { vt.typeIdx = int64(v) })
		case 2:
			err = d.intField(wire, func(v uint64) { vt.unitIdx = int64(v) })
		default:
			err = d.skip(wire)
		}
		if err != nil {
			return vt, err
		}
	}
	return vt, nil
}

func parseSample(b []byte) (rawSample, error) {
	var s rawSample
	d := decoder{data: b}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			err = d.intField(wire, func(v uint64) { s.locIDs = append(s.locIDs, v) })
		case 2:
			err = d.intField(wire, func(v uint64) { s.values = append(s.values, int64(v)) })
		default:
			err = d.skip(wire)
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

func parseLocation(b []byte) (rawLocation, error) {
	var loc rawLocation
	d := decoder{data: b}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return loc, err
		}
		switch field {
		case 1:
			err = d.intField(wire, func(v uint64) { loc.id = v })
		case 3:
			err = d.intField(wire, func(v uint64) { loc.address = v })
		case 4:
			var lb []byte
			if lb, err = expectLen(&d, wire); err == nil {
				var id uint64
				if id, err = parseLine(lb); err == nil {
					loc.funcIDs = append(loc.funcIDs, id)
				}
			}
		default:
			err = d.skip(wire)
		}
		if err != nil {
			return loc, err
		}
	}
	return loc, nil
}

// parseLine returns a Line record's function id.
func parseLine(b []byte) (uint64, error) {
	var funcID uint64
	d := decoder{data: b}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return 0, err
		}
		if field == 1 {
			err = d.intField(wire, func(v uint64) { funcID = v })
		} else {
			err = d.skip(wire)
		}
		if err != nil {
			return 0, err
		}
	}
	return funcID, nil
}

func parseFunction(b []byte) (rawFunction, error) {
	var f rawFunction
	d := decoder{data: b}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return f, err
		}
		switch field {
		case 1:
			err = d.intField(wire, func(v uint64) { f.id = v })
		case 2:
			err = d.intField(wire, func(v uint64) { f.nameIdx = int64(v) })
		default:
			err = d.skip(wire)
		}
		if err != nil {
			return f, err
		}
	}
	return f, nil
}
