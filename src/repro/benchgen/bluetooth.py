"""Boolean model of the Windows NT Bluetooth driver (Figure 3's benchmark).

The model follows the well-known abstraction used by Qadeer–Wu (KISS) and the
context-bounded-analysis literature: a driver with two kinds of threads,

* *adders* perform I/O: they increment a pending-I/O counter, check the
  stopping flag, do the I/O (which must not happen after the driver stopped —
  the assertion), and decrement the counter;
* *stoppers* stop the driver: they raise the stopping flag, release their own
  reference to the counter, wait for the counter to hit zero (the stopping
  event) and then mark the driver stopped.

The pending-I/O counter is abstracted to two Boolean bits (values 0..3, which
is exact for the configurations of Figure 3: at most two adders and the
initial reference).  Shared variables: ``pio0``, ``pio1`` (the counter),
``stoppingFlag``, ``stoppingEvent``, ``stopped``.

Known behaviour (matching the paper's Figure 3): with one adder and one
stopper the assertion cannot fail within six context switches; adding a second
stopper or a second adder makes the assertion violable with three to four
context switches.
"""

from __future__ import annotations

from ..boolprog import ConcurrentProgram, parse_concurrent_program

__all__ = ["bluetooth_source", "make_bluetooth", "BLUETOOTH_CONFIGURATIONS"]

#: The four thread configurations evaluated in Figure 3.
BLUETOOTH_CONFIGURATIONS = {
    "1A1S": (1, 1),
    "1A2S": (1, 2),
    "2A1S": (2, 1),
    "2A2S": (2, 2),
}

_ADDER = """
thread adder{index} begin
  main() begin
    decl status;
    status := io_increment();
    if (status) then
      // Perform the I/O: the driver must not have been stopped under us.
      assert(!stopped);
      call io_decrement();
    fi
  end

  io_increment() begin
    decl t0, t1;
    // pendingIo++ — a non-atomic read/modify/write of the 2-bit counter, as
    // in the driver (the lost-update race between two adders is what makes
    // the two-adder configuration violable).
    t0, t1 := pio0, pio1;
    t0, t1 := !t0, t1 ^ t0;
    pio0, pio1 := t0, t1;
    if (stoppingFlag) then
      call io_decrement();
      return F;
    fi
    return T;
  end

  io_decrement() begin
    // pendingIo--; when it reaches zero, signal the stopping event.
    pio0, pio1 := !pio0, pio1 ^ !pio0;
    if (!pio0 & !pio1) then
      stoppingEvent := T;
    fi
  end
end
"""

_STOPPER = """
thread stopper{index} begin
  main() begin
    stoppingFlag := T;
    call io_decrement();
    // WaitForSingleObject(stoppingEvent): block until the event is signalled.
    assume(stoppingEvent);
    stopped := T;
  end

  io_decrement() begin
    pio0, pio1 := !pio0, pio1 ^ !pio0;
    if (!pio0 & !pio1) then
      stoppingEvent := T;
    fi
  end
end
"""


def bluetooth_source(adders: int = 1, stoppers: int = 1) -> str:
    """The source text of the Bluetooth model with the given threads."""
    if adders < 1 or stoppers < 1:
        raise ValueError("the Bluetooth model needs at least one adder and one stopper")
    threads = []
    for index in range(adders):
        threads.append(_ADDER.format(index=index + 1))
    for index in range(stoppers):
        threads.append(_STOPPER.format(index=index + 1))
    return (
        "shared decl pio0, pio1, stoppingFlag, stoppingEvent, stopped;\n"
        # pendingIo starts at 1 (the driver holds one reference).
        "init pio0 := T, pio1 := F, stoppingFlag := F, stoppingEvent := F, stopped := F;\n"
        + "\n".join(threads)
    )


def make_bluetooth(adders: int = 1, stoppers: int = 1) -> ConcurrentProgram:
    """Build the Bluetooth model with the given number of adder/stopper threads."""
    return parse_concurrent_program(
        bluetooth_source(adders, stoppers), name=f"bluetooth-{adders}A{stoppers}S"
    )
