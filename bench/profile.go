package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// A minimal reader for the gzipped protobuf profiles runtime/pprof
// writes: just the fields needed to turn each CPU sample into a stack of
// function names. The message layout is profile.proto from
// github.com/google/pprof; the benchmark imports only the standard
// library.

// stackSample is one profile sample: function names from leaf to root,
// and the sample's CPU nanoseconds.
type stackSample struct {
	funcs  []string
	weight int64
}

var errTruncated = errors.New("pprof: truncated message")

type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// next reads one field key and, for length-delimited fields, its payload.
func (r *pbReader) next() (field int, wire int, payload []byte, val uint64, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, 0, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, nil, 0, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, nil, 0, errTruncated
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, nil, 0, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return field, wire, payload, val, err
}

// uints appends a repeated uint64 field, packed (wire type 2) or not.
func uints(dst []uint64, wire int, payload []byte, val uint64) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	r := pbReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// decodeProfile parses a gzipped pprof profile into leaf-first stacks.
func decodeProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		field, _, payload, _, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s sample
			sr := pbReader{payload}
			for len(sr.b) > 0 {
				f, w, pl, v, err := sr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = uints(s.locs, w, pl, v)
				case 2:
					s.vals, err = uints(s.vals, w, pl, v)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			lr := pbReader{payload}
			for len(lr.b) > 0 {
				f, _, pl, v, err := lr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					ln := pbReader{pl}
					for len(ln.b) > 0 {
						lf, _, _, lv, err := ln.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			fr := pbReader{payload}
			for len(fr.b) > 0 {
				f, _, _, v, err := fr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{}
		if n := len(s.vals); n > 0 {
			st.weight = int64(s.vals[n-1])
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// layerOf returns the benchmark layer a function belongs to, or "" for
// code outside the listed internal packages.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "sanft/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return ""
}

// ownCode reports whether fn is this repository's code (any sanft
// package, or the benchmark's own main package).
func ownCode(fn string) bool {
	return strings.HasPrefix(fn, "sanft/") || strings.HasPrefix(fn, "sanft.") || strings.HasPrefix(fn, "main.")
}

// inReference reports whether a sample ran the speed-reference loop,
// which is the benchmark's yardstick, not part of any workload.
func inReference(funcs []string) bool {
	for _, fn := range funcs {
		if strings.HasPrefix(fn, "main.reference") {
			return true
		}
	}
	return false
}

// attribute charges each sample to the first layer found walking its
// stack up from the leaf. Samples in no layer go to the benchmark's own
// code (the main package and the root package's renderers), to GC
// background workers, or to the rest of the runtime. rt is the part of a
// layer's share whose leaf is runtime or standard-library code: the
// allocation, map and channel work done on the layer's behalf. Both maps
// are fractions of all samples outside the reference loop.
func attribute(samples []stackSample) (cpu, rt map[string]float64) {
	cpu, rt = map[string]float64{}, map[string]float64{}
	var total float64
	for _, s := range samples {
		if len(s.funcs) == 0 || inReference(s.funcs) {
			continue
		}
		w := float64(s.weight)
		total += w
		bucket := ""
		for _, fn := range s.funcs {
			if bucket = layerOf(fn); bucket != "" {
				break
			}
		}
		if bucket != "" {
			if !ownCode(s.funcs[0]) {
				rt[bucket] += w
			}
		} else {
			bucket = "runtime.other"
			for _, fn := range s.funcs {
				if ownCode(fn) {
					bucket = "bench"
					break
				}
				if fn == "runtime.gcBgMarkWorker" {
					bucket = "runtime.gc_bg"
				}
			}
		}
		cpu[bucket] += w
	}
	for k := range cpu {
		cpu[k] /= total
	}
	for k := range rt {
		rt[k] /= total
	}
	return cpu, rt
}

// profileFractions decodes the traced passes' profiles and returns every
// <layer>.cpu_frac and <layer>.rt_frac over their pooled samples.
func profileFractions(traced []*pass) map[string]float64 {
	var all []stackSample
	for _, p := range traced {
		s, err := decodeProfile(p.profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: pass %d: %v\n", p.index, err)
			continue
		}
		all = append(all, s...)
	}
	cpu, rt := attribute(all)
	v := map[string]float64{}
	for _, l := range layers {
		v[l+".cpu_frac"] = cpu[l]
		v[l+".rt_frac"] = rt[l]
	}
	for _, b := range []string{"runtime.gc_bg", "runtime.other", "bench"} {
		v[b+".cpu_frac"] = cpu[b]
	}
	return v
}
