package diffutil

// Binary deltas between blob versions, for the update channel's
// bandwidth story: successive update tarballs (and successive linked
// kernel images) share most of their bytes, so a subscriber that already
// holds the previous blob can reconstruct the next one from a small
// delta instead of fetching it whole.
//
// The encoder is a block-hash (rsync-style) differ: the base is indexed
// by a hash of every deltaBlockSize-byte window, the target is scanned
// once, and runs found in the base become copy ops while everything else
// is emitted literally. Matches extend greedily in both directions, so
// unaligned sharing (tar members shift by a few bytes between versions)
// still collapses into one copy op.
//
// Wire format ("GSD1"):
//
//	magic[4] | baseSha256[32] | targetSha256[32] | uvarint(targetLen) |
//	flate( ops )
//
//	ops: opCopy(0x01) uvarint(offset) uvarint(length)
//	   | opLit(0x02)  uvarint(length) bytes...
//
// Both digests are embedded, so application is self-verifying end to
// end: the decoder refuses a base that is not the one the delta was
// computed against, and refuses a reconstruction whose bytes do not
// hash to the advertised target — a corrupt delta can never hand back
// wrong bytes, it can only fail (and the caller falls back to a full
// fetch). Literal bytes ride inside the flate stream, so a delta of two
// unrelated blobs degrades to roughly flate(target), never worse than a
// compressed full copy plus the fixed header.

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

const (
	deltaBlockSize = 32
	deltaMagic     = "GSD1"
	deltaHeaderLen = 4 + sha256.Size + sha256.Size

	opCopy byte = 0x01
	opLit  byte = 0x02

	// deltaMaxTarget bounds the decoder's allocation; no blob in the
	// system is near it.
	deltaMaxTarget = 1 << 30
)

// ErrNotDelta reports bytes that are not a GSD1 delta at all.
var ErrNotDelta = errors.New("diffutil: not a GSD1 binary delta")

// DeltaBaseError reports that ApplyDelta was handed the wrong base: the
// delta was computed against a blob with a different digest. The caller
// should fall back to fetching the target whole.
type DeltaBaseError struct {
	Want, Got string // hex sha256
}

func (e *DeltaBaseError) Error() string {
	return fmt.Sprintf("diffutil: delta base is %.12s…, caller supplied %.12s…", e.Want, e.Got)
}

// windowHash hashes one deltaBlockSize-byte window (FNV-1a).
func windowHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// MakeDelta encodes target as a delta against base. It always succeeds;
// when the blobs share nothing the delta is essentially a compressed
// full copy of target.
func MakeDelta(base, target []byte) []byte {
	// Index every window of the base by hash; first occurrence wins, so
	// the output is deterministic.
	var index map[uint64]int
	if len(base) >= deltaBlockSize {
		index = make(map[uint64]int, len(base)-deltaBlockSize+1)
		for j := 0; j+deltaBlockSize <= len(base); j++ {
			h := windowHash(base[j : j+deltaBlockSize])
			if _, ok := index[h]; !ok {
				index[h] = j
			}
		}
	}

	var ops bytes.Buffer
	var num [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(num[:], v)
		ops.Write(num[:n])
	}
	litStart := 0 // target[litStart:i] is the pending literal run
	flushLit := func(end int) {
		if end > litStart {
			ops.WriteByte(opLit)
			putUvarint(uint64(end - litStart))
			ops.Write(target[litStart:end])
		}
	}

	i := 0
	for i+deltaBlockSize <= len(target) {
		j, ok := index[windowHash(target[i:i+deltaBlockSize])]
		if !ok || !bytes.Equal(base[j:j+deltaBlockSize], target[i:i+deltaBlockSize]) {
			i++
			continue
		}
		// Extend the match backward into the pending literal run, then
		// forward as far as the bytes agree.
		for i > litStart && j > 0 && target[i-1] == base[j-1] {
			i--
			j--
		}
		n := deltaBlockSize
		for i+n < len(target) && j+n < len(base) && target[i+n] == base[j+n] {
			n++
		}
		flushLit(i)
		ops.WriteByte(opCopy)
		putUvarint(uint64(j))
		putUvarint(uint64(n))
		i += n
		litStart = i
	}
	flushLit(len(target))

	baseSum := sha256.Sum256(base)
	targetSum := sha256.Sum256(target)
	out := make([]byte, 0, deltaHeaderLen+binary.MaxVarintLen64+ops.Len()/2)
	out = append(out, deltaMagic...)
	out = append(out, baseSum[:]...)
	out = append(out, targetSum[:]...)
	out = binary.AppendUvarint(out, uint64(len(target)))
	buf := bytes.NewBuffer(out)
	w, _ := flate.NewWriter(buf, flate.BestCompression)
	w.Write(ops.Bytes())
	w.Close()
	return buf.Bytes()
}

// inflater is one pooled reconstruction's reusable state: a flate
// reader, which allocates its 32 KiB window when made, the reader it
// inflates from, and the buffer the op stream inflates into.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
	ops []byte
}

// maxPooledOps bounds the op buffer a pooled inflater keeps between
// uses; a larger stream's buffer is left to the collector.
const maxPooledOps = 1 << 20

// inflaters recycles inflaters. Every flate reader is reset as it leaves
// the pool, so one that failed on a corrupt stream carries nothing into
// its next use.
var inflaters = sync.Pool{New: func() any {
	return &inflater{fr: flate.NewReader(bytes.NewReader(nil))}
}}

// appendUpTo appends r's bytes to buf until r ends or buf holds n bytes.
func appendUpTo(buf []byte, r io.Reader, n int) ([]byte, error) {
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), 512))
		}
		m, err := r.Read(buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// header parses the fixed part of a GSD1 delta: the base and target
// digests, the declared target length, and the offset of the op stream.
func header(delta []byte) (wantBase, wantTarget []byte, declared uint64, ops int, err error) {
	if len(delta) < deltaHeaderLen+1 || string(delta[:4]) != deltaMagic {
		return nil, nil, 0, 0, ErrNotDelta
	}
	declared, n := binary.Uvarint(delta[deltaHeaderLen:])
	if n <= 0 || declared > deltaMaxTarget {
		return nil, nil, 0, 0, fmt.Errorf("diffutil: delta header corrupt")
	}
	return delta[4 : 4+sha256.Size], delta[4+sha256.Size : deltaHeaderLen], declared, deltaHeaderLen + n, nil
}

// DeltaResult returns the hex sha256 digest and the length of the blob
// delta declares it reconstructs, read from its header. ApplyDelta
// returns bytes only when they have that digest and length, so a
// caller that checks them against a trusted digest and size first need
// not hash the reconstruction again.
func DeltaResult(delta []byte) (digest string, size int64, err error) {
	_, wantTarget, declared, _, err := header(delta)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(wantTarget), int64(declared), nil
}

// ApplyDelta reconstructs the target blob from base and a delta produced
// by MakeDelta. baseDigest is base's hex sha256, which the caller
// already knows (a digest-keyed cache verified base when it stored it),
// so ApplyDelta does not hash base again. targetLen is the length the
// caller expects (a manifest entry's size): a delta whose header
// declares any other length is refused before anything is inflated. It
// verifies everything before handing bytes back: the base digest
// embedded in the delta must equal baseDigest (a mismatch is a
// *DeltaBaseError), and the reconstruction must hash to the embedded
// target digest — a truncated or bit-flipped delta, or a base whose
// bytes are not baseDigest's, returns an error, never wrong bytes.
func ApplyDelta(base []byte, baseDigest string, delta []byte, targetLen int64) ([]byte, error) {
	wantBase, wantTarget, declared, opsOff, err := header(delta)
	if err != nil {
		return nil, err
	}
	if targetLen < 0 || declared != uint64(targetLen) {
		return nil, fmt.Errorf("diffutil: delta declares %d bytes, caller expects %d", declared, targetLen)
	}
	var want [2 * sha256.Size]byte
	if hex.Encode(want[:], wantBase); string(want[:]) != baseDigest {
		return nil, &DeltaBaseError{Want: string(want[:]), Got: baseDigest}
	}
	// The op stream is still untrusted, so allocation follows the bytes
	// actually present. The inflated stream is capped at twice the
	// target length plus slack: MakeDelta's streams stay within the
	// target length plus one literal op's overhead, since every copy op
	// encodes a run longer than itself, so a flate bomb is cut off early.
	// And out starts no larger than base plus the op stream can fill.
	limit := 2*declared + 64
	inf := inflaters.Get().(*inflater)
	defer func() {
		inf.src.Reset(nil)
		if cap(inf.ops) > maxPooledOps {
			inf.ops = nil
		}
		inflaters.Put(inf)
	}()
	inf.src.Reset(delta[opsOff:])
	inf.fr.(flate.Resetter).Reset(&inf.src, nil)
	ops, err := appendUpTo(inf.ops[:0], inf.fr, int(limit)+1)
	inf.ops = ops[:0]
	if err != nil {
		return nil, fmt.Errorf("diffutil: delta op stream corrupt: %w", err)
	}
	if uint64(len(ops)) > limit {
		return nil, fmt.Errorf("diffutil: delta op stream exceeds %d bytes for a %d-byte target", limit, declared)
	}

	out := make([]byte, 0, min(declared, uint64(len(base))+uint64(len(ops))))
	for len(ops) > 0 {
		op := ops[0]
		ops = ops[1:]
		switch op {
		case opCopy:
			off, n1 := binary.Uvarint(ops)
			if n1 <= 0 {
				return nil, fmt.Errorf("diffutil: delta copy op corrupt")
			}
			length, n2 := binary.Uvarint(ops[n1:])
			if n2 <= 0 {
				return nil, fmt.Errorf("diffutil: delta copy op corrupt")
			}
			ops = ops[n1+n2:]
			end := off + length
			if end < off || end > uint64(len(base)) {
				return nil, fmt.Errorf("diffutil: delta copy [%d,%d) outside %d-byte base", off, end, len(base))
			}
			out = append(out, base[off:end]...)
		case opLit:
			length, n1 := binary.Uvarint(ops)
			if n1 <= 0 || length > uint64(len(ops)-n1) {
				return nil, fmt.Errorf("diffutil: delta literal op corrupt")
			}
			out = append(out, ops[n1:n1+int(length)]...)
			ops = ops[n1+int(length):]
		default:
			return nil, fmt.Errorf("diffutil: delta op %#x unknown", op)
		}
		if uint64(len(out)) > declared {
			return nil, fmt.Errorf("diffutil: delta reconstructs more than its declared %d bytes", declared)
		}
	}
	if uint64(len(out)) != declared {
		return nil, fmt.Errorf("diffutil: delta reconstructed %d of %d declared bytes", len(out), declared)
	}
	if got := sha256.Sum256(out); !bytes.Equal(got[:], wantTarget) {
		return nil, fmt.Errorf("diffutil: delta reconstruction digest mismatch")
	}
	return out, nil
}
