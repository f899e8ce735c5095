package ara

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
	"repro/internal/someip"
)

// BindingHook intercepts messages at the SOME/IP binding boundary. The
// DEAR framework installs a hook to implement the paper's "modified
// SOME/IP binding": Outgoing pulls a tag from the timestamp bypass and
// attaches it to the message; Incoming extracts the tag and pushes it to
// the bypass before the message continues up the standard stack. The
// hook sees substrate-independent addresses, so the same hook works over
// the simulated network and over real UDP sockets.
type BindingHook interface {
	Outgoing(m *someip.Message)
	Incoming(src someip.Addr, m *someip.Message)
}

// Config configures a Runtime (one per software component process).
type Config struct {
	// Name identifies the SWC process (used for process and RNG naming).
	Name string
	// Port is the application endpoint port (0 = ephemeral).
	Port uint16
	// ClientID for outgoing requests; 0 derives one from host and port.
	ClientID someip.ClientID
	// Exec configures the worker-thread pool.
	Exec ExecConfig
	// SD configures service discovery timing.
	SD someip.AgentConfig
	// Tagged selects the modified (tag-aware) SOME/IP binding.
	Tagged bool
	// MTU enables SOME/IP-TP segmentation for messages exceeding this
	// wire size (0 = no segmentation).
	MTU int
	// WrapEndpoint, when set, wraps the runtime's transport endpoint at
	// construction time — the seam trace recording installs itself at
	// (e.g. trace.NewRecordingEndpoint). The wrapper sees every message
	// the binding sends and receives, on any substrate.
	WrapEndpoint func(someip.Endpoint) someip.Endpoint
}

// Runtime is the per-process ara::com runtime: it owns the application
// endpoint, the SD agent, the worker-thread executor and the
// request/response bookkeeping.
//
// A Runtime runs over a pluggable transport (someip.Endpoint). Two
// substrates exist today: the deterministic simulated network (via
// NewRuntime, the default for experiments) and real UDP sockets driven
// by a physical-clock kernel driver (via NewUDPRuntime).
type Runtime struct {
	host  *simnet.Host // nil for runtimes on real sockets
	k     *des.Kernel
	clock *des.LocalClock
	name  string
	cfg   Config

	conn     someip.Endpoint
	sd       *someip.Agent // nil without an SD substrate (UDP runtimes)
	exec     *Executor
	clientID someip.ClientID
	session  someip.SessionID
	pending  map[someip.SessionID]*Future

	skeletons map[someip.ServiceID]*Skeleton
	eventSubs map[eventKey][]func(*Ctx, []byte)

	hook BindingHook
	rng  *des.Rand
}

type eventKey struct {
	service someip.ServiceID
	event   someip.MethodID
}

// NewRuntime creates a runtime on a simulated host: the endpoint is a
// simnet binding, service discovery runs over the simulated SD multicast
// group, and execution is driven deterministically by the host's kernel.
func NewRuntime(host *simnet.Host, cfg Config) (*Runtime, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("ara: runtime needs a name")
	}
	k := host.Net().Kernel()
	ep, err := host.Bind(cfg.Port)
	if err != nil {
		return nil, err
	}
	sd, err := someip.NewAgent(host, cfg.SD)
	if err != nil {
		return nil, err
	}
	clientID := cfg.ClientID
	if clientID == 0 {
		clientID = someip.ClientID(host.ID()<<8 | ep.Addr().Port&0xff)
	}
	rt := newRuntime(k, host.Clock(), cfg, someip.NewConnMTU(ep, cfg.Tagged, cfg.MTU), clientID)
	rt.host = host
	rt.sd = sd
	rt.conn.OnMessage(rt.handle)
	return rt, nil
}

// NewUDPRuntime creates a runtime whose endpoint is a real UDP socket
// (addr uses net.ListenUDP semantics, e.g. "127.0.0.1:0"). The runtime's
// kernel is driven by the real-time driver: socket receptions are
// injected as kernel events, so handlers, futures and the executor run
// on the driver's goroutine exactly as they do under simulation —
// except that time is now physical.
//
// UDP runtimes have no service-discovery agent; peers are configured
// statically with StaticProxy. Close the runtime when done.
func NewUDPRuntime(drv *des.RealTime, addr string, cfg Config) (*Runtime, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("ara: runtime needs a name")
	}
	conn, err := someip.ListenUDP(addr, cfg.Tagged, cfg.MTU)
	if err != nil {
		return nil, err
	}
	k := drv.Kernel()
	clientID := cfg.ClientID
	if clientID == 0 {
		clientID = someip.ClientID(conn.Addr().Port)
	}
	// The physical clock: kernel time already tracks the wall clock under
	// the real-time driver, so the local clock is the identity mapping.
	rt := newRuntime(k, k.NewLocalClock(des.ClockConfig{}, nil), cfg, conn, clientID)
	rt.conn.OnMessage(func(src someip.Addr, m *someip.Message) {
		// Handlers must run on the kernel goroutine; the socket reader
		// hands the message over through the driver's injection queue.
		drv.Inject(func() { rt.handle(src, m) })
	})
	return rt, nil
}

// NewEndpointRuntime creates a runtime over an arbitrary pre-built
// transport endpoint driven directly by the given kernel: the
// endpoint must deliver inbound messages in the kernel's execution
// context (as simulated transports do). It is the replay seam — a
// trace.Replayer is an Endpoint whose "network" is a recorded trace —
// and is useful for any custom substrate that speaks someip.Endpoint.
// Like UDP runtimes it has no service-discovery agent; peers are
// configured statically.
func NewEndpointRuntime(k *des.Kernel, ep someip.Endpoint, cfg Config) (*Runtime, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("ara: runtime needs a name")
	}
	clientID := cfg.ClientID
	if clientID == 0 {
		clientID = 1
	}
	rt := newRuntime(k, k.NewLocalClock(des.ClockConfig{}, nil), cfg, ep, clientID)
	rt.conn.OnMessage(rt.handle)
	return rt, nil
}

func newRuntime(k *des.Kernel, clock *des.LocalClock, cfg Config, conn someip.Endpoint, clientID someip.ClientID) *Runtime {
	if cfg.WrapEndpoint != nil {
		conn = cfg.WrapEndpoint(conn)
	}
	rng := k.Rand("ara." + cfg.Name)
	return &Runtime{
		k:         k,
		clock:     clock,
		name:      cfg.Name,
		cfg:       cfg,
		conn:      conn,
		exec:      NewExecutor(k, rng.Stream("exec"), cfg.Exec),
		clientID:  clientID,
		pending:   map[someip.SessionID]*Future{},
		skeletons: map[someip.ServiceID]*Skeleton{},
		eventSubs: map[eventKey][]func(*Ctx, []byte){},
		rng:       rng,
	}
}

// Name returns the runtime's process name.
func (rt *Runtime) Name() string { return rt.name }

// Host returns the simulated platform the runtime executes on, or nil
// for runtimes bound to real sockets.
func (rt *Runtime) Host() *simnet.Host { return rt.host }

// Kernel returns the kernel that schedules the runtime's execution.
func (rt *Runtime) Kernel() *des.Kernel { return rt.k }

// Clock returns the platform's local clock.
func (rt *Runtime) Clock() *des.LocalClock { return rt.clock }

// Addr returns the application endpoint address.
func (rt *Runtime) Addr() someip.Addr { return rt.conn.LocalAddr() }

// simAddr returns the endpoint address in simulated form. Valid only on
// runtimes created with NewRuntime (rt.sd != nil implies this).
func (rt *Runtime) simAddr() simnet.Addr { return rt.conn.LocalAddr().(simnet.Addr) }

// Conn returns the runtime's transport endpoint.
func (rt *Runtime) Conn() someip.Endpoint { return rt.conn }

// SD returns the runtime's service-discovery agent (nil on runtimes
// without an SD substrate, such as UDP runtimes).
func (rt *Runtime) SD() *someip.Agent { return rt.sd }

// Executor returns the runtime's worker pool.
func (rt *Runtime) Executor() *Executor { return rt.exec }

// Rand returns the runtime's random stream.
func (rt *Runtime) Rand() *des.Rand { return rt.rng }

// ConnStats returns the binding's (sent, received, decode error) message
// counters.
func (rt *Runtime) ConnStats() (sent, received, decodeErrors uint64) {
	return rt.conn.Stats()
}

// Close releases the runtime's endpoint. Pending requests never resolve;
// call it only when tearing the process down (primarily for UDP
// runtimes, whose sockets outlive any single kernel run).
func (rt *Runtime) Close() error { return rt.conn.Close() }

// SetBindingHook installs the DEAR binding hook (see BindingHook).
func (rt *Runtime) SetBindingHook(h BindingHook) { rt.hook = h }

// send transmits a message through the (possibly hooked) binding.
// Transmission is best-effort, mirroring the AP stack's lack of a
// delivery guarantee; the returned error reports local failures only
// (closed endpoint, wrong-substrate address, segmentation) — most
// callers drop it, but the proxy uses it to fail calls fast.
func (rt *Runtime) send(dst someip.Addr, m *someip.Message) error {
	if rt.hook != nil {
		rt.hook.Outgoing(m)
	}
	return rt.conn.Send(dst, m)
}

func (rt *Runtime) nextSession() someip.SessionID {
	rt.session++
	if rt.session == 0 {
		rt.session = 1
	}
	return rt.session
}

func (rt *Runtime) handle(src someip.Addr, m *someip.Message) {
	if rt.hook != nil {
		rt.hook.Incoming(src, m)
	}
	switch m.Type {
	case someip.TypeRequest, someip.TypeRequestNoReturn:
		rt.handleRequest(src, m)
	case someip.TypeResponse, someip.TypeError:
		rt.handleResponse(m)
	case someip.TypeNotification:
		rt.handleNotification(m)
	}
}

func (rt *Runtime) handleRequest(src someip.Addr, m *someip.Message) {
	sk, ok := rt.skeletons[m.Service]
	if !ok || !sk.offered {
		rt.reply(src, m, nil, someip.EUnknownService)
		return
	}
	h, ok := sk.handlers[m.Method]
	if !ok {
		rt.reply(src, m, nil, someip.EUnknownMethod)
		return
	}
	// Each invocation is dispatched to a worker thread; ordering is up to
	// the (simulated) scheduler. One carrier holds everything the
	// invocation and its reply need.
	r := &request{src: src, req: *m, h: h}
	r.ctx.rt = rt
	r.ctx.msg = &r.req
	rt.exec.submit(task{c: &r.ctx, fn: runRequest, arg: r})
}

// request carries one method invocation from dispatch to reply: the
// handler's context, a copy of the request, its source, the handler, the
// result once the handler produced it, and the response message.
type request struct {
	ctx   Ctx
	src   someip.Addr
	req   someip.Message
	h     methodHandler
	res   Result
	reply someip.Message
}

// runRequest is the executor task of a method invocation.
func runRequest(c *Ctx, arg any) {
	r := arg.(*request)
	if r.h.sync != nil {
		payload, err := r.h.sync(c, r.req.Payload)
		if r.req.Type == someip.TypeRequestNoReturn {
			return
		}
		// The reply leaves in its own event at the current instant, as
		// it would from a callback on an already-resolved future.
		r.res = Result{Payload: payload, Err: err}
		c.rt.k.AfterTransientFn(0, replyFn, r)
		return
	}
	fut := r.h.async(c, r.req.Payload)
	if r.req.Type == someip.TypeRequestNoReturn {
		return
	}
	fut.Then(func(res Result) {
		r.res = res
		r.send()
	})
}

// replyFn is the reply event of a synchronous handler.
func replyFn(arg any) { arg.(*request).send() }

// send transmits the response to the request, mapping an error result to
// its SOME/IP return code.
func (r *request) send() {
	code := someip.EOK
	payload := r.res.Payload
	if r.res.Err != nil {
		if re, ok := r.res.Err.(*RemoteError); ok {
			code = re.Code
		} else {
			code = someip.ENotOK
		}
		payload = nil
	}
	r.reply = responseTo(&r.req, payload, code, r.res.Tag)
	r.ctx.rt.send(r.src, &r.reply)
}

func (rt *Runtime) reply(dst someip.Addr, req *someip.Message, payload []byte, code someip.ReturnCode) {
	rt.replyTagged(dst, req, payload, code, nil)
}

// replyTagged sends a response; tag, when non-nil, rides the modified
// binding's tag trailer (the DEAR server method transactor resolves its
// future with the response tag ts+Ds).
func (rt *Runtime) replyTagged(dst someip.Addr, req *someip.Message, payload []byte, code someip.ReturnCode, tag *logical.Tag) {
	m := responseTo(req, payload, code, tag)
	rt.send(dst, &m)
}

// responseTo builds the response (or error) message answering req.
func responseTo(req *someip.Message, payload []byte, code someip.ReturnCode, tag *logical.Tag) someip.Message {
	typ := someip.TypeResponse
	if code != someip.EOK {
		typ = someip.TypeError
	}
	return someip.Message{
		Service:          req.Service,
		Method:           req.Method,
		Client:           req.Client,
		Session:          req.Session,
		InterfaceVersion: req.InterfaceVersion,
		Type:             typ,
		Code:             code,
		Payload:          payload,
		Tag:              tag,
	}
}

func (rt *Runtime) handleResponse(m *someip.Message) {
	fut, ok := rt.pending[m.Session]
	if !ok {
		return
	}
	delete(rt.pending, m.Session)
	if m.Type == someip.TypeError || m.Code != someip.EOK {
		fut.Resolve(Result{Err: &RemoteError{Code: m.Code}, Tag: m.Tag})
		return
	}
	fut.Resolve(Result{Payload: m.Payload, Tag: m.Tag})
}

func (rt *Runtime) handleNotification(m *someip.Message) {
	for _, h := range rt.eventSubs[eventKey{m.Service, m.Method}] {
		n := &notification{msg: *m, h: h}
		n.ctx.rt = rt
		n.ctx.msg = &n.msg
		rt.exec.submit(task{c: &n.ctx, fn: runNotification, arg: n})
	}
}

// notification carries one event delivery to one subscribed handler: the
// handler's context, a copy of the notification and the handler.
type notification struct {
	ctx Ctx
	msg someip.Message
	h   func(*Ctx, []byte)
}

// runNotification is the executor task of an event delivery.
func runNotification(c *Ctx, arg any) {
	n := arg.(*notification)
	n.h(c, n.msg.Payload)
}

// Spawn starts an application process belonging to this runtime.
func (rt *Runtime) Spawn(name string, body func(*Ctx)) *des.Process {
	return rt.k.Spawn(rt.name+"."+name, func(p *des.Process) {
		body(&Ctx{p: p, rt: rt})
	})
}

// PeriodicHandle stops a periodic callback.
type PeriodicHandle struct{ stopped *bool }

// Stop cancels the periodic callback after the current activation.
func (h *PeriodicHandle) Stop() { *h.stopped = true }

// Every installs a periodic callback driven by the platform's local
// clock, mirroring the APD demonstrator's cyclic OS triggers: the first
// activation happens at local time now+offset, then every period of
// local time. If an activation overruns, missed grid slots are skipped
// (timer semantics).
func (rt *Runtime) Every(offset, period logical.Duration, fn func(*Ctx)) *PeriodicHandle {
	if period <= 0 {
		panic("ara: Every needs a positive period")
	}
	stopped := false
	clk := rt.Clock()
	rt.k.Spawn(rt.name+".periodic", func(p *des.Process) {
		start := clk.Now().Add(offset)
		for n := int64(0); !stopped; {
			next := start.Add(logical.Duration(n) * period)
			// Map the local-time deadline to global simulated time under
			// the clock's current affine segment.
			p.WaitUntil(clk.GlobalAt(next))
			if stopped {
				return
			}
			fn(&Ctx{p: p, rt: rt})
			// Skip any grid slots the activation overran.
			n++
			for clk.Now() >= start.Add(logical.Duration(n)*period) {
				n++
			}
		}
	})
	return &PeriodicHandle{stopped: &stopped}
}
