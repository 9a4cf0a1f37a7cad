"""Import hfstab before any test module loads numpy, so that its one-thread
OpenBLAS default takes effect in the test process (see README, Threads)."""
import hfstab  # noqa: F401
