"""Retired columnar container codec; only a compatibility name remains.

Column objects serialize by plain ``pickle`` (DESIGN.md §16.3).  The
end-to-end benchmark harness still imports :data:`HAVE_NUMPY` from here;
nothing in the package imports this module.
"""

#: Always True: numpy is a hard dependency.
HAVE_NUMPY = True
