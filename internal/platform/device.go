package platform

import "bionicdb/internal/sim"

// Device is a latency + bandwidth component: a memory module, a link, or a
// storage device. It has a number of parallel channels; each transfer
// occupies one channel for bytes/perChannelBandwidth and then experiences
// the device's pipelined latency without holding the channel, so concurrent
// requesters overlap latency but share bandwidth. This is the standard
// queueing model for every box and arrow in Figure 2.
type Device struct {
	chans   *sim.Resource
	perChan float64      // GB/s per channel
	latency sim.Duration // pipelined: experienced after the channel is released
	holdLat sim.Duration // seek-style: occupies the channel (disks, SSD)

	bytes int64
}

// NewDevice creates a device with aggregate bandwidth gbps split over the
// given number of channels and a fixed pipelined latency.
func NewDevice(env *sim.Env, name string, gbps float64, latency sim.Duration, channels int) *Device {
	if channels < 1 {
		channels = 1
	}
	return &Device{
		chans:   sim.NewResource(env, name, channels),
		perChan: gbps / float64(channels),
		latency: latency,
	}
}

// Transfer moves bytes through the device: it occupies one channel for the
// serialization time, then waits the pipelined latency. It returns the total
// time the calling process spent in the device (including queueing). The
// process parks at most once.
func (d *Device) Transfer(p *sim.Proc, bytes int) sim.Duration {
	start := p.Now()
	sc := p.Script()
	d.AddTransfer(sc, bytes)
	sc.Run()
	return p.Now().Sub(start)
}

// AddTransfer appends one transfer to a script the caller is building, for
// callers that chain it with other device, core or unit steps under one
// park. The byte count advances when the transfer starts. The trailing
// latency wait is a step even at zero latency (seek-style devices): there it
// is the yield a transfer has always ended with.
func (d *Device) AddTransfer(sc *sim.Script, bytes int) {
	sc.Add(&d.bytes, int64(bytes))
	sc.Acquire(d.chans)
	sc.Wait(d.holdLat + transferTime(int64(bytes), d.perChan))
	sc.Release(d.chans)
	sc.Wait(d.latency)
}

// Bytes returns the total bytes transferred.
func (d *Device) Bytes() int64 { return d.bytes }

// BusyTime returns channel-seconds of serialization consumed.
func (d *Device) BusyTime() sim.Duration { return d.chans.BusyTime() }
