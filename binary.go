package netanomaly

import (
	"bytes"
	"context"
	"io"
	"os"

	"netanomaly/internal/netmeas"
)

// ErrBinaryFormat is returned (wrapped) by the binary decoder when a
// stream is structurally invalid — bad magic, unsupported version, an
// impossible link count or a mis-sized frame; test with errors.Is.
// Truncation mid-header or mid-frame is reported as
// io.ErrUnexpectedEOF instead, so callers can tell a corrupt stream
// from one that was cut short.
var ErrBinaryFormat = netmeas.ErrBinaryFormat

// Codec identifies a v2 payload encoding: CodecRaw (LE float64) or
// CodecXOR (per-link XOR/delta compression for smooth traffic counts).
type Codec = netmeas.Codec

// Codec values for WireFormat and BinaryDecoder.Codec.
const (
	CodecRaw = netmeas.CodecRaw
	CodecXOR = netmeas.CodecXOR
)

// ParseCodec maps "raw" or "xor" to its Codec — for flag plumbing.
func ParseCodec(s string) (Codec, error) {
	return netmeas.ParseCodec(s)
}

// WireFormat selects the version, codec, and batch framing of an
// encoded binary stream (see the "Binary ingest" section of the
// README). The zero value is version 1: per-bin frames, raw payload.
type WireFormat = netmeas.WireFormat

// BinaryEncoder writes link-measurement bins in the compact binary
// wire format (see the "Binary ingest" section of the README): a
// 12-byte stream header carrying the link count, then length-prefixed
// frames — one bin per frame under v1, up to BatchBins bins per frame
// under v2, with the payload encoded by the negotiated codec. The
// encoder reuses internal buffers, so steady-state encoding does not
// allocate.
type BinaryEncoder = netmeas.BinaryEncoder

// NewBinaryEncoder writes the v1 stream header for links columns and
// returns an encoder for the frames.
func NewBinaryEncoder(w io.Writer, links int) (*BinaryEncoder, error) {
	return netmeas.NewBinaryEncoder(w, links)
}

// NewBinaryEncoderFormat writes the stream header for the requested
// wire format and returns an encoder for the frames. Under v2, call
// Flush after the last bin to emit the final short batch frame.
func NewBinaryEncoderFormat(w io.Writer, links int, format WireFormat) (*BinaryEncoder, error) {
	return netmeas.NewBinaryEncoderFormat(w, links, format)
}

// BinaryDecoder reads the binary wire format frame by frame into
// caller-provided buffers; the streaming consumer behind
// Monitor.IngestBinary. Decoding a frame performs no heap allocation.
type BinaryDecoder = netmeas.BinaryDecoder

// NewBinaryDecoder reads and validates the stream header.
func NewBinaryDecoder(r io.Reader) (*BinaryDecoder, error) {
	return netmeas.NewBinaryDecoder(r)
}

// WriteMatrixBinary writes a bins x links matrix as one v1 binary
// stream: header plus one frame per row. The binary format carries no
// column names — pair it with a topology, which defines the link order.
func WriteMatrixBinary(w io.Writer, m *Matrix) error {
	return netmeas.WriteMatrixBinary(w, m)
}

// WriteMatrixBinaryFormat writes the matrix as one binary stream in the
// requested wire format — version 2 with batch framing and a codec, or
// the v1 default. Every accepted (version, codec, capacity) choice has
// exactly one canonical serialization per matrix, and this writes it.
func WriteMatrixBinaryFormat(w io.Writer, m *Matrix, format WireFormat) error {
	return netmeas.WriteMatrixBinaryFormat(w, m, format)
}

// ReadMatrixBinary reads a complete binary stream into a matrix — the
// batch counterpart of the streaming BinaryDecoder.
func ReadMatrixBinary(r io.Reader) (*Matrix, error) {
	return netmeas.ReadMatrixBinary(r)
}

// SaveMatrixBinary writes the matrix to a file in the binary wire
// format.
func SaveMatrixBinary(path string, m *Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteMatrixBinary(f, m); err != nil {
		return err
	}
	return f.Close()
}

// LoadMatrixBinary reads a matrix from a binary-format file.
func LoadMatrixBinary(path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMatrixBinary(f)
}

// LoadMatrix reads a link matrix in either encoding — the binary wire
// format or CSV — deciding by the binary magic bytes rather than a flag
// or file extension. Path "-" reads standard input.
func LoadMatrix(path string) (*Matrix, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, []byte("NAMB")) {
		return ReadMatrixBinary(bytes.NewReader(data))
	}
	m, _, err := ReadMatrixCSV(bytes.NewReader(data))
	return m, err
}

// StreamBinary decodes a binary stream into LinkMeasurements on a
// channel — the wire-format counterpart of StreamMatrix, for feeding
// Monitor.IngestStream from a socket or pipe. The channel closes at
// end of stream, on a decode error, or when ctx is cancelled; call the
// returned function after the channel closes to learn whether the
// stream ended cleanly. For the allocation-free path into a Monitor,
// prefer Monitor.IngestBinary, which reuses pooled batch buffers
// instead of emitting one row copy per bin.
func StreamBinary(ctx context.Context, r io.Reader) (<-chan LinkMeasurement, func() error, error) {
	return netmeas.StreamBinary(ctx, r)
}
