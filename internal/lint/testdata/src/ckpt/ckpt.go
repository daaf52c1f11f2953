// Package ckpt is a corpus stub of the real internal/ckpt API: the
// analyzers identify Enc/Dec/Codec by type name and package name, so
// this stub is matched exactly like the real encoder.
package ckpt

type Enc struct{ b []byte }

func (e *Enc) Header()           {}
func (e *Enc) Begin(name string) {}
func (e *Enc) End()              {}
func (e *Enc) U8(v uint8)        {}
func (e *Enc) U32(v uint32)      {}
func (e *Enc) U64(v uint64)      {}
func (e *Enc) Uvarint(v uint64)  {}
func (e *Enc) Svarint(v int64)   {}
func (e *Enc) Int(v int)         {}
func (e *Enc) Int32(v int32)     {}
func (e *Enc) Bool(v bool)       {}
func (e *Enc) Bytes(b []byte)    {}
func (e *Enc) String(s string)   {}
func (e *Enc) Err() error        { return nil }

type Dec struct{ b []byte }

func (d *Dec) Header()                        {}
func (d *Dec) Begin(name string)              {}
func (d *Dec) End()                           {}
func (d *Dec) U8() uint8                      { return 0 }
func (d *Dec) U32() uint32                    { return 0 }
func (d *Dec) U64() uint64                    { return 0 }
func (d *Dec) Uvarint() uint64                { return 0 }
func (d *Dec) Svarint() int64                 { return 0 }
func (d *Dec) Int() int                       { return 0 }
func (d *Dec) Int32() int32                   { return 0 }
func (d *Dec) Bool() bool                     { return false }
func (d *Dec) Bytes() []byte                  { return nil }
func (d *Dec) String() string                 { return "" }
func (d *Dec) Len(elemSize int) int           { return 0 }
func (d *Dec) Cap(n int) int                  { return 0 }
func (d *Dec) Count() int                     { return 0 }
func (d *Dec) Err() error                     { return nil }
func (d *Dec) Corruptf(f string, args ...any) {}

type Codec struct{ e *Enc }

func (c *Codec) Loading() bool        { return false }
func (c *Codec) Begin(name string)    {}
func (c *Codec) End()                 {}
func (c *Codec) U8(p *uint8)          {}
func (c *Codec) U64(p *uint64)        {}
func (c *Codec) Uvarint(p *uint64)    {}
func (c *Codec) Int32(p *int32)       {}
func (c *Codec) Bool(p *bool)         {}
func (c *Codec) Len(p *int, size int) {}
func (c *Codec) Err() error           { return nil }
