"""Helpers for driving a :class:`~repro.kernel.process.UserProcess`."""

from repro.kernel.process import fresh_tokens


def touch_memory(proc, npages, writes_per_page=4):
    """Allocate ``npages`` of private memory and dirty the first words of
    each; returns the first vpage."""
    start = proc.task.allocate_anon(npages)
    for i in range(npages):
        proc.task.write_block(start + i, 0, fresh_tokens(writes_per_page))
    return start
