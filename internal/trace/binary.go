package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hwatch/internal/netem"
)

// Binary trace format ("HWT1"): a compact, stream-friendly record format
// for offline analysis of simulator packet traces, in the spirit of pcap.
//
//	file   := magic record*
//	magic  := "HWT1"
//	record := time:i64 dir:u8 hostLen:u8 host:bytes
//	          src:i32 dst:i32 sport:u16 dport:u16
//	          seq:i64 ack:i64 flags:u8 ecn:u8 probe:u8
//	          payload:u32 wire:u32 rwnd:u16
//
// All integers are big endian.

var binMagic = [4]byte{'H', 'W', 'T', '1'}

// Record is one decoded trace record.
type Record struct {
	T    int64
	Dir  Dir
	Host string

	Src, Dst         netem.NodeID
	SrcPort, DstPort uint16
	Seq, Ack         int64
	Flags            netem.TCPFlags
	ECN              netem.ECN
	Probe            bool
	Payload, Wire    int
	Rwnd             uint16
}

// BinaryWriter streams records to w.
type BinaryWriter struct {
	w   *bufio.Writer
	n   int64
	err error
}

// NewBinaryWriter writes the magic and returns a writer.
func NewBinaryWriter(w io.Writer) (*BinaryWriter, error) {
	bw := &BinaryWriter{w: bufio.NewWriter(w)}
	if _, err := bw.w.Write(binMagic[:]); err != nil {
		return nil, err
	}
	return bw, nil
}

// Write appends one record built from a live packet observation.
func (bw *BinaryWriter) Write(t int64, d Dir, host string, p *netem.Packet) error {
	if bw.err != nil {
		return bw.err
	}
	if len(host) > 255 {
		host = host[:255]
	}
	var buf [64]byte
	binary.BigEndian.PutUint64(buf[0:], uint64(t))
	buf[8] = byte(d)
	buf[9] = byte(len(host))
	bw.put(buf[:10])
	bw.putString(host)

	binary.BigEndian.PutUint32(buf[0:], uint32(p.Src))
	binary.BigEndian.PutUint32(buf[4:], uint32(p.Dst))
	binary.BigEndian.PutUint16(buf[8:], p.SrcPort)
	binary.BigEndian.PutUint16(buf[10:], p.DstPort)
	binary.BigEndian.PutUint64(buf[12:], uint64(p.Seq))
	binary.BigEndian.PutUint64(buf[20:], uint64(p.Ack))
	buf[28] = byte(p.Flags)
	buf[29] = byte(p.ECN)
	if p.Probe {
		buf[30] = 1
	} else {
		buf[30] = 0
	}
	binary.BigEndian.PutUint32(buf[31:], uint32(p.Payload))
	binary.BigEndian.PutUint32(buf[35:], uint32(p.Wire))
	binary.BigEndian.PutUint16(buf[39:], p.Rwnd)
	bw.put(buf[:41])
	if bw.err == nil {
		bw.n++
	}
	return bw.err
}

func (bw *BinaryWriter) put(b []byte) {
	if bw.err != nil {
		return
	}
	_, bw.err = bw.w.Write(b)
}

// putString writes s without the []byte(s) copy Write would force.
func (bw *BinaryWriter) putString(s string) {
	if bw.err != nil {
		return
	}
	_, bw.err = bw.w.WriteString(s)
}

// Count returns the records written.
func (bw *BinaryWriter) Count() int64 { return bw.n }

// Flush drains buffered bytes to the underlying writer.
func (bw *BinaryWriter) Flush() error {
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// BinaryReader decodes a trace stream.
type BinaryReader struct {
	r *bufio.Reader
}

// NewBinaryReader validates the magic and returns a reader.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := &BinaryReader{r: bufio.NewReader(r)}
	var m [4]byte
	if _, err := io.ReadFull(br.r, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != binMagic {
		return nil, errors.New("trace: not an HWT1 stream")
	}
	return br, nil
}

// Next decodes one record; io.EOF at a clean end of stream.
func (br *BinaryReader) Next() (Record, error) {
	var rec Record
	var head [10]byte
	if _, err := io.ReadFull(br.r, head[:]); err != nil {
		if err == io.EOF {
			return rec, io.EOF
		}
		return rec, fmt.Errorf("trace: record header: %w", err)
	}
	rec.T = int64(binary.BigEndian.Uint64(head[0:]))
	rec.Dir = Dir(head[8])
	host := make([]byte, head[9])
	if _, err := io.ReadFull(br.r, host); err != nil {
		return rec, fmt.Errorf("trace: host name: %w", err)
	}
	rec.Host = string(host)

	var body [41]byte
	if _, err := io.ReadFull(br.r, body[:]); err != nil {
		return rec, fmt.Errorf("trace: record body: %w", err)
	}
	rec.Src = netem.NodeID(binary.BigEndian.Uint32(body[0:]))
	rec.Dst = netem.NodeID(binary.BigEndian.Uint32(body[4:]))
	rec.SrcPort = binary.BigEndian.Uint16(body[8:])
	rec.DstPort = binary.BigEndian.Uint16(body[10:])
	rec.Seq = int64(binary.BigEndian.Uint64(body[12:]))
	rec.Ack = int64(binary.BigEndian.Uint64(body[20:]))
	rec.Flags = netem.TCPFlags(body[28])
	rec.ECN = netem.ECN(body[29])
	rec.Probe = body[30] == 1
	rec.Payload = int(binary.BigEndian.Uint32(body[31:]))
	rec.Wire = int(binary.BigEndian.Uint32(body[35:]))
	rec.Rwnd = binary.BigEndian.Uint16(body[39:])
	return rec, nil
}

// ReadAll decodes the remaining records.
func (br *BinaryReader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := br.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// BinaryTap installs a host filter streaming every observed packet to bw.
func BinaryTap(h *netem.Host, bw *BinaryWriter) {
	h.AddFilter(&binTap{w: bw, host: h})
}

type binTap struct {
	w    *BinaryWriter
	host *netem.Host
}

func (t *binTap) Outbound(p *netem.Packet) netem.Verdict {
	t.w.Write(t.host.Eng.Now(), Out, t.host.Name, p)
	return netem.VerdictPass
}

func (t *binTap) Inbound(p *netem.Packet) netem.Verdict {
	t.w.Write(t.host.Eng.Now(), In, t.host.Name, p)
	return netem.VerdictPass
}
