package ara

import (
	"fmt"

	"repro/internal/someip"
)

// Handler implements one service method synchronously. It runs on a
// worker thread; the returned payload becomes the response. Returning a
// *RemoteError maps to that SOME/IP return code; any other error maps to
// E_NOT_OK.
type Handler func(c *Ctx, args []byte) ([]byte, error)

// AsyncHandler implements one service method by returning a future, as
// ara::com specifies ("the implementation of the service method is
// expected to return a future; as soon as the corresponding promise is
// fulfilled, the server sends a message back to the client"). The DEAR
// server method transactor relies on this to defer the response until the
// server reactor produces it.
type AsyncHandler func(c *Ctx, args []byte) *Future

// Skeleton is the server-side access object for one offered service
// instance: the abstract class a service implementation fills in with
// method handlers and through which it raises events.
type Skeleton struct {
	rt       *Runtime
	iface    *ServiceInterface
	key      someip.ServiceKey
	handlers map[someip.MethodID]methodHandler
	fields   map[string]*FieldServer
	offered  bool
}

// NewSkeleton creates a skeleton for a service instance on this runtime.
// At most one skeleton per service ID may exist per runtime.
func (rt *Runtime) NewSkeleton(si *ServiceInterface, instance someip.InstanceID) (*Skeleton, error) {
	if err := si.Validate(); err != nil {
		return nil, err
	}
	if _, dup := rt.skeletons[si.ID]; dup {
		return nil, fmt.Errorf("ara: runtime %s already has a skeleton for service %#x", rt.name, uint16(si.ID))
	}
	sk := &Skeleton{
		rt:       rt,
		iface:    si,
		key:      someip.ServiceKey{Service: si.ID, Instance: instance},
		handlers: map[someip.MethodID]methodHandler{},
		fields:   map[string]*FieldServer{},
	}
	rt.skeletons[si.ID] = sk
	for _, fs := range si.Fields {
		sk.fields[fs.Name] = newFieldServer(sk, fs)
	}
	return sk, nil
}

// Interface returns the service interface description.
func (sk *Skeleton) Interface() *ServiceInterface { return sk.iface }

// Key returns the offered service key.
func (sk *Skeleton) Key() someip.ServiceKey { return sk.key }

// Handle installs the implementation of a method by name.
func (sk *Skeleton) Handle(method string, h Handler) error {
	spec, ok := sk.iface.Method(method)
	if !ok {
		return fmt.Errorf("ara: %s has no method %q", sk.iface.Name, method)
	}
	sk.HandleID(spec.ID, h)
	return nil
}

// HandleAsync installs a future-returning implementation by name.
func (sk *Skeleton) HandleAsync(method string, h AsyncHandler) error {
	spec, ok := sk.iface.Method(method)
	if !ok {
		return fmt.Errorf("ara: %s has no method %q", sk.iface.Name, method)
	}
	sk.HandleIDAsync(spec.ID, h)
	return nil
}

// HandleID installs a synchronous handler by wire ID (used by generated
// field accessors and transactors).
func (sk *Skeleton) HandleID(id someip.MethodID, h Handler) {
	sk.handlers[id] = methodHandler{sync: h}
}

// HandleIDAsync installs a future-returning handler by wire ID. The
// response message is sent when the future resolves.
func (sk *Skeleton) HandleIDAsync(id someip.MethodID, h AsyncHandler) {
	sk.handlers[id] = methodHandler{async: h}
}

// methodHandler is one installed method implementation: exactly one of
// sync and async is set. Keeping the synchronous form lets the request
// path reply directly, without wrapping the result in a resolved future.
type methodHandler struct {
	sync  Handler
	async AsyncHandler
}

// Offer makes the service available and, on runtimes with an SD agent,
// announces it via SD. Requests arriving before Offer are answered with
// E_UNKNOWN_SERVICE. On SD-less runtimes (UDP) clients reach the service
// through statically configured endpoints (StaticProxy).
func (sk *Skeleton) Offer() {
	sk.offered = true
	if sk.rt.sd != nil {
		sk.rt.sd.Offer(sk.key, sk.iface.Major, sk.iface.Minor, sk.rt.simAddr())
	}
}

// StopOffer withdraws the service.
func (sk *Skeleton) StopOffer() {
	sk.offered = false
	if sk.rt.sd != nil {
		sk.rt.sd.StopOffer(sk.key)
	}
}

// Notify raises an event by name, fanning it out to all subscribers.
func (sk *Skeleton) Notify(event string, payload []byte) error {
	spec, ok := sk.iface.Event(event)
	if !ok {
		return fmt.Errorf("ara: %s has no event %q", sk.iface.Name, event)
	}
	sk.NotifyID(spec.ID, spec.Eventgroup, payload)
	return nil
}

// NotifyID raises an event by wire ID and eventgroup. Without an SD
// agent there are no subscribers and the notification is dropped.
func (sk *Skeleton) NotifyID(id someip.MethodID, eventgroup uint16, payload []byte) {
	if sk.rt.sd == nil {
		return
	}
	for _, sub := range sk.rt.sd.Subscribers(sk.key, eventgroup) {
		sk.rt.send(sub, &someip.Message{
			Service:          sk.key.Service,
			Method:           id,
			Client:           0,
			Session:          sk.rt.nextSession(),
			InterfaceVersion: sk.iface.Major,
			Type:             someip.TypeNotification,
			Code:             someip.EOK,
			Payload:          payload,
		})
	}
}

// Field returns the server-side accessor for a field.
func (sk *Skeleton) Field(name string) (*FieldServer, error) {
	f, ok := sk.fields[name]
	if !ok {
		return nil, fmt.Errorf("ara: %s has no field %q", sk.iface.Name, name)
	}
	return f, nil
}
