from hypothesis import settings

# No example database: with one, a failing draw saved under .hypothesis/ is
# replayed by every later run in the checkout, so the suite's result would
# depend on the runs before it rather than on the code.
settings.register_profile("no_database", database=None)
settings.load_profile("no_database")
