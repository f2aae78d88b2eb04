"""Observation points and the device state change log (Section IV-B).

After the CFG analyzer picks the device state parameters and the
observation points, the device is "recompiled with instrumentation" — here,
a trace sink records, for every training round: the control flow (block
sequence, branch outcomes, indirect targets), the device-state parameter
changes, and the block-type auxiliary information (command markers).  The
collected :class:`DeviceStateChangeLog` is the primary input to ES-CFG
construction, and serializes to JSON to model the paper's log files.

The log is recorded compactly and read through views.  Each event is one
tuple ``(kind, block, *payload)`` (block and branch events are shared per
block address), and each round boundary stores one tuple holding every
scalar field of the control structure, decoded by a single
``struct.unpack_from``.  :meth:`DeviceStateChangeLog.project` narrows a
log to a parameter selection without copying the rounds, and
``RoundLog.events``/``initial_state``/``final_state`` build the
:class:`LogEvent`/dict forms only when read.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.interp.sinks import TraceSink
from repro.ir.types import IntType

#: event kinds: a recorded event is the tuple ``(kind, block, *payload)``
EV_BLOCK, EV_BRANCH, EV_TIP, EV_STORE, EV_BUFSTORE, EV_DECISION, EV_END = \
    range(7)
_KIND_NAMES = ("block", "branch", "tip", "store", "bufstore",
               "cmd_decision", "cmd_end")
_KIND_CODES = {name: code for code, name in enumerate(_KIND_NAMES)}
#: payload keys of each kind's materialized ``LogEvent.data``
_DATA_KEYS = ((), ("taken",), ("target", "how"),
              ("field", "value", "overflow"), ("buf", "index"), ("value",),
              ())


@dataclass
class LogEvent:
    """One observation inside a round; ``kind`` selects the payload.

    kinds: ``block`` (entered block at address), ``branch`` (outcome),
    ``tip`` (indirect target + icall/switch), ``store`` (param field,
    new value, overflow flag), ``bufstore`` (param buffer, index),
    ``cmd_decision`` (command value), ``cmd_end``.
    """

    kind: str
    block: int
    data: Dict[str, Any] = field(default_factory=dict)


def _event_data(event: tuple) -> Dict[str, Any]:
    kind = event[0]
    data = dict(zip(_DATA_KEYS[kind], event[2:]))
    if kind == EV_BRANCH:
        data["taken"] = bool(data["taken"])
    elif kind == EV_STORE:
        data["overflow"] = bool(data["overflow"])
    return data


def _event_tuple(kind: str, block: int, data: Dict[str, Any]) -> tuple:
    code = _KIND_CODES[kind]
    return (code, block, *[data[key] for key in _DATA_KEYS[code]])


class _View:
    """What a log shows of its compact rounds: the selected scalar
    fields (by their position in a snapshot) and the events on them.

    Rounds point at a view, not back at their log, so a log and its
    rounds form no reference cycle: dropping the log frees them at once,
    without waiting for the cycle collector.
    """

    __slots__ = ("fields", "buffers", "positions")

    def __init__(self, state_fields: Tuple[str, ...],
                 fields: Iterable[str], buffers: Iterable[str]):
        self.fields: FrozenSet[str] = frozenset(fields)
        self.buffers: FrozenSet[str] = frozenset(buffers)
        self.positions = tuple((name, i)
                               for i, name in enumerate(state_fields)
                               if name in self.fields)

    def state(self, snapshot: tuple) -> Dict[str, int]:
        return {name: snapshot[i] for name, i in self.positions}

    def shows(self, event: tuple) -> bool:
        kind = event[0]
        if kind == EV_STORE:
            return event[2] in self.fields
        if kind == EV_BUFSTORE:
            return event[2] in self.buffers
        return True


class RoundLog:
    """All observations of one I/O interaction round.

    ``trace`` holds the recorded event tuples and ``initial``/``final``
    the state snapshots at the round's boundaries; ``events``,
    ``initial_state`` and ``final_state`` are their materialized views,
    narrowed to the owning log's parameters.
    """

    __slots__ = ("io_key", "io_args", "trace", "initial", "final",
                 "faulted", "_view")

    def __init__(self, io_key: str, io_args: Tuple[int, ...],
                 trace: List[tuple], initial: tuple, final: tuple,
                 view: _View, faulted: bool = False):
        self.io_key = io_key
        self.io_args = io_args
        self.trace = trace
        self.initial = initial
        self.final = final
        self.faulted = faulted
        self._view = view

    @property
    def events(self) -> List[LogEvent]:
        shows = self._view.shows
        return [LogEvent(_KIND_NAMES[e[0]], e[1], _event_data(e))
                for e in self.trace if shows(e)]

    @property
    def initial_state(self) -> Dict[str, int]:
        return self._view.state(self.initial)

    @property
    def final_state(self) -> Dict[str, int]:
        return self._view.state(self.final)

    def block_sequence(self) -> List[int]:
        return [e[1] for e in self.trace if e[0] == EV_BLOCK]

    def command_values(self) -> List[int]:
        return [e[2] for e in self.trace if e[0] == EV_DECISION]

    def _viewed(self, view: _View) -> "RoundLog":
        return RoundLog(self.io_key, self.io_args, self.trace,
                        self.initial, self.final, view, self.faulted)

    def _to_obj(self) -> Dict[str, Any]:
        shows = self._view.shows
        return {"io_key": self.io_key, "io_args": list(self.io_args),
                "events": [{"kind": _KIND_NAMES[e[0]], "block": e[1],
                            "data": _event_data(e)}
                           for e in self.trace if shows(e)],
                "initial_state": self.initial_state,
                "final_state": self.final_state,
                "faulted": self.faulted}


@dataclass
class DeviceStateChangeLog:
    """The full training log of one device.

    ``state_fields`` names the scalar fields each round snapshot holds,
    in snapshot order; ``param_fields``/``param_buffers`` are what the
    log shows of them: the stores on them, and their snapshot values.
    """

    device: str
    param_fields: List[str]
    param_buffers: List[str]
    rounds: List[RoundLog] = field(default_factory=list)
    state_fields: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self._view = _View(self.state_fields, self.param_fields,
                           self.param_buffers)

    def project(self, fields: Set[str],
                buffers: Set[str]) -> "DeviceStateChangeLog":
        """This log narrowed to *fields* and *buffers*.

        The rounds share their recorded events and snapshots with this
        log; only what the views show changes.  Projecting a log of
        every field onto a selection gives what a logger constructed
        with that selection would have recorded over the same run.
        """
        log = DeviceStateChangeLog(self.device, sorted(fields),
                                   sorted(buffers),
                                   state_fields=self.state_fields)
        log.rounds = [r._viewed(log._view) for r in self.rounds]
        return log

    # -- (de)serialization ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "device": self.device,
            "param_fields": self.param_fields,
            "param_buffers": self.param_buffers,
            "rounds": [r._to_obj() for r in self.rounds],
        })

    @classmethod
    def from_json(cls, text: str) -> "DeviceStateChangeLog":
        raw = json.loads(text)
        rounds = raw["rounds"]
        state_fields = tuple(rounds[0]["initial_state"]) if rounds else ()
        log = cls(raw["device"], raw["param_fields"], raw["param_buffers"],
                  state_fields=state_fields)
        for r in rounds:
            log.rounds.append(RoundLog(
                r["io_key"], tuple(r["io_args"]),
                [_event_tuple(e["kind"], e["block"], e["data"])
                 for e in r["events"]],
                tuple(r["initial_state"][n] for n in state_fields),
                tuple(r["final_state"][n] for n in state_fields),
                log._view, r["faulted"]))
        return log


def _scalar_struct(layout) -> Tuple[Tuple[str, ...], struct.Struct]:
    """The scalar fields of *layout* and one ``Struct`` reading them all
    in a single ``unpack_from``, buffers skipped as pad bytes."""
    names: List[str] = []
    fmt = ["<"]
    for decl in layout.fields:
        if decl.is_buffer:
            fmt.append(f"{decl.size}x")
            continue
        names.append(decl.name)
        letter = {1: "b", 2: "h", 4: "i", 8: "q"}[decl.size]
        signed = isinstance(decl.type, IntType) and decl.type.signed
        fmt.append(letter if signed else letter.upper())
    return tuple(names), struct.Struct("".join(fmt))


class ObservationLogger(TraceSink):
    """The instrumented observation points, as a trace sink.

    *param_fields*/*param_buffers* are the device state parameters whose
    changes are recorded (the paper: tracking every change in the control
    structure is impractical).  Training hands it every field and buffer
    and projects the log onto the selection afterwards (see
    :meth:`DeviceStateChangeLog.project`).
    """

    def __init__(self, device: str, param_fields: Set[str],
                 param_buffers: Set[str],
                 decision_blocks: Set[int] = frozenset(),
                 end_blocks: Set[int] = frozenset()):
        self.log = DeviceStateChangeLog(
            device, sorted(param_fields), sorted(param_buffers))
        self._param_fields = set(param_fields)
        self._param_buffers = set(param_buffers)
        self._decision_blocks = set(decision_blocks)
        self._end_blocks = set(end_blocks)
        self._machine = None
        self._unpack = None
        self._last: tuple = ()
        #: the open round: key, args, initial snapshot, events (None
        #: outside a round)
        self._key = ""
        self._args: Tuple[int, ...] = ()
        self._initial: tuple = ()
        self._events: Optional[List[tuple]] = None
        self._block_addr = 0
        #: shared event tuples, per block address
        self._block_events: Dict[int, tuple] = {}
        self._branch_events: Dict[int, Tuple[tuple, tuple]] = {}

    def attach(self, machine) -> None:
        self._machine = machine
        names, codec = _scalar_struct(machine.state.layout)
        self._unpack = codec.unpack_from
        log = self.log
        self.log = DeviceStateChangeLog(
            log.device, log.param_fields, log.param_buffers, log.rounds,
            state_fields=names)

    # -- sink events -----------------------------------------------------------

    def on_io_enter(self, key, args) -> None:
        self._key = key
        self._args = tuple(args)
        self._initial = self._snapshot()
        self._events = []

    def on_io_exit(self, key, result) -> None:
        events = self._events
        if events is not None:
            log = self.log
            log.rounds.append(RoundLog(self._key, self._args, events,
                                       self._initial, self._snapshot(),
                                       log._view))
        self._events = None

    def on_block(self, func, block) -> None:
        address = self._block_addr = block.address
        events = self._events
        if events is None:
            return
        event = self._block_events.get(address)
        if event is None:
            event = self._block_events[address] = (EV_BLOCK, address)
        events.append(event)
        if address in self._end_blocks:
            # Auto-detected command-end block (e.g. the entry handler's
            # return): the "block type" auxiliary information.
            events.append((EV_END, address))

    def on_switch(self, block, value, target_addr) -> None:
        if block.address in self._decision_blocks:
            # Auto-detected command decision: the scrutinee value names
            # the current device command.
            self._event(EV_DECISION, value)

    def on_branch(self, block, taken) -> None:
        events = self._events
        if events is None:
            return
        address = self._block_addr
        pair = self._branch_events.get(address)
        if pair is None:
            pair = self._branch_events[address] = (
                (EV_BRANCH, address, False), (EV_BRANCH, address, True))
        events.append(pair[1] if taken else pair[0])

    def on_tip(self, block, target_addr, kind) -> None:
        self._event(EV_TIP, target_addr, kind)

    def on_state_store(self, field_name, value, overflowed) -> None:
        events = self._events
        if events is not None and field_name in self._param_fields:
            events.append((EV_STORE, self._block_addr, field_name, value,
                           overflowed))

    def on_buf_store(self, buf, index, value) -> None:
        if buf in self._param_buffers:
            self._event(EV_BUFSTORE, buf, index)

    def on_intrinsic(self, kind, values) -> None:
        if kind == "command_decision":
            self._event(EV_DECISION, values[0] if values else 0)
        elif kind == "command_end":
            self._event(EV_END)

    # -- internals ----------------------------------------------------------------

    def _event(self, kind: int, *payload) -> None:
        if self._events is not None:
            self._events.append((kind, self._block_addr) + payload)

    def _snapshot(self) -> tuple:
        """Every scalar field, as one tuple; the previous snapshot when
        nothing changed, so an idle stretch stores one object."""
        if self._machine is None:
            return ()
        snapshot = self._unpack(self._machine.state.data)
        if snapshot == self._last:
            return self._last
        self._last = snapshot
        return snapshot
