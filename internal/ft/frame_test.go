package ft

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// sampleFrame is a 3×2 tile frame of distinct bit patterns.
func sampleFrame() (Frame, []float64, []byte) {
	f := Frame{Kind: FrameTile, I: 5, J: 7, Rows: 3, Cols: 2}
	data := []float64{math.Copysign(0, -1), 1.5, math.Inf(-1), math.Float64frombits(0x7ff8000000000001), 1e-310, -2}
	return f, data, f.Append(nil, data)
}

func TestFrameRoundTrip(t *testing.T) {
	f, data, b := sampleFrame()
	if want := frameHeader + 8*len(data) + frameTrailer; len(b) != want {
		t.Fatalf("frame of %d bytes, want %d", len(b), want)
	}
	got, payload, sum, err := OpenFrame(b)
	if err != nil || got != f {
		t.Fatalf("OpenFrame = %+v, %v; want %+v", got, err, f)
	}
	if sum != FrameSum(b) {
		t.Errorf("trailer %#x, FrameSum %#x", sum, FrameSum(b))
	}
	out := make([]float64, len(data))
	Unpack(out, payload)
	for i := range data {
		if math.Float64bits(out[i]) != math.Float64bits(data[i]) {
			t.Errorf("element %d: %x != %x", i, math.Float64bits(out[i]), math.Float64bits(data[i]))
		}
	}
	rf, rdata, err := ReadFrame(bytes.NewReader(b))
	if err != nil || rf != f || !bytes.Equal(f.Append(nil, rdata), b) {
		t.Errorf("ReadFrame = %+v, %v", rf, err)
	}
	// Frames append: two read back in turn.
	r := bytes.NewReader(f.Append(b[:len(b):len(b)], data))
	for k := range 2 {
		if _, _, err := ReadFrame(r); err != nil {
			t.Fatalf("frame %d of a stream: %v", k, err)
		}
	}
}

// TestFrameEverySingleBitFlip flips each bit of a small frame, header and
// trailer included: the seal refuses every one, in memory and on a stream.
func TestFrameEverySingleBitFlip(t *testing.T) {
	_, _, good := sampleFrame()
	for bit := range 8 * len(good) {
		b := append([]byte(nil), good...)
		b[bit/8] ^= 1 << (bit % 8)
		if _, _, _, err := OpenFrame(b); !errors.Is(err, ErrFrameChecksum) {
			t.Errorf("bit %d: OpenFrame = %v, want ErrFrameChecksum", bit, err)
		}
		if _, _, err := ReadFrame(bytes.NewReader(b)); err == nil {
			t.Errorf("bit %d: ReadFrame accepted", bit)
		}
	}
}

func TestFrameMalformed(t *testing.T) {
	_, _, good := sampleFrame()
	for cut := range len(good) {
		if _, _, _, err := OpenFrame(good[:cut]); err == nil {
			t.Errorf("OpenFrame accepted %d of %d bytes", cut, len(good))
		}
		if _, _, err := ReadFrame(bytes.NewReader(good[:cut])); !errors.Is(err, ErrFrameMalformed) {
			t.Errorf("ReadFrame of %d of %d bytes = %v, want ErrFrameMalformed", cut, len(good), err)
		}
	}
	// A sealed header whose geometry disagrees with the payload length.
	body := good[:len(good)-frameTrailer-8]
	short := binary.LittleEndian.AppendUint64(append([]byte(nil), body...), CRC64Bytes(body))
	if _, _, _, err := OpenFrame(short); !errors.Is(err, ErrFrameMalformed) {
		t.Errorf("short payload: %v, want ErrFrameMalformed", err)
	}
}

// FuzzFrameDecode: OpenFrame and ReadFrame never panic, agree on what they
// accept, and any frame they accept re-encodes to the same bytes.
func FuzzFrameDecode(f *testing.F) {
	_, _, good := sampleFrame()
	f.Add(good)
	f.Add(Frame{Kind: FrameCheckpoint, Rows: 1, Cols: 0}.Append(nil, nil))
	f.Add(good[:frameHeader])
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, payload, _, err := OpenFrame(b)
		rf, rdata, rerr := ReadFrame(bytes.NewReader(b))
		if err != nil {
			if rerr == nil && len(b) == frameHeader+8*rf.Rows*rf.Cols+frameTrailer {
				t.Fatalf("ReadFrame accepted what OpenFrame refused: %v", err)
			}
			return
		}
		if rerr != nil || rf != fr {
			t.Fatalf("ReadFrame = %+v, %v; OpenFrame = %+v", rf, rerr, fr)
		}
		data := make([]float64, fr.Rows*fr.Cols)
		Unpack(data, payload)
		if !bytes.Equal(fr.Append(nil, data), b) || !bytes.Equal(fr.Append(nil, rdata), b) {
			t.Fatalf("accepted frame %+v re-encodes to other bytes", fr)
		}
	})
}
